(** Workload inputs.  Every draw is a pure hash of the seed and the
    draw's coordinates (no PRNG stream), so an input never depends on
    what was drawn before it, and the same seed gives the same inputs. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp

(** SplitMix64's finaliser. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash (coords : int list) : int64 =
  List.fold_left
    (fun h x -> mix64 (Int64.add (Int64.add h 0x9e3779b97f4a7c15L) (Int64.of_int x)))
    0L coords

(** Uniform in [0, 1). *)
let unit_float (coords : int list) : float =
  Int64.to_float (Int64.shift_right_logical (hash coords) 11) /. 9007199254740992.0

(* draw streams: the first coordinate names what is drawn *)
let s_field = 1
let s_rank = 2
let s_pick = 3
let s_spelling = 4
let s_campaign = 5

(** The seed handed to [Fuzz.generate] (and so to the corpus): a hash of
    the benchmark seed.  [Fuzz.generate] draws from [seed lxor index],
    so campaigns with small seeds contain the same programs at permuted
    indices; hashing spreads benchmark seeds over 30 bits, where
    campaigns of a few thousand cases do not overlap. *)
let campaign_seed seed =
  Int64.to_int (Int64.shift_right_logical (hash [ s_campaign; seed ]) 34)

(** {1 check: seeded initial fields} *)

(** Fresh 3-D scalar state grids of [p] holding values in [-1, 1).
    Interior points are drawn per (seed, benchmark, grid, point).  The
    halo is the Dirichlet boundary, fixed in time, so it is drawn per
    (seed, benchmark, point) and shared by all state grids: the host
    keeps each grid's boundary columns, while the reference rotates
    them with the state, and the two agree only on a boundary that all
    time levels share.  The reference runs on copies of these grids;
    the fabric gets the same values retensorized. *)
let fields ~seed ~bench (p : P.t) : I.grid list =
  let ft = P.field_type p in
  let nx, ny, nz = p.P.extents in
  List.mapi
    (fun gi _ ->
      let g = I.grid_of_typ ft in
      let dims = List.map (fun (l, u) -> (l, u - l)) g.I.gbounds in
      Array.iteri
        (fun k _ ->
          (* row-major: the last dimension varies fastest *)
          let coords, _ =
            List.fold_right
              (fun (l, d) (acc, rest) -> ((rest mod d) + l :: acc, rest / d))
              dims ([], k)
          in
          let interior =
            List.for_all2 (fun c n -> c >= 0 && c < n) coords [ nx; ny; nz ]
          in
          let grid = if interior then gi else -1 in
          g.I.gdata.(k) <- (2.0 *. unit_float [ s_field; seed; bench; grid; k ]) -. 1.0)
        g.I.gdata;
      g)
    p.P.state

(** {1 serve: request stream} *)

(** Distinct programs in the serve working set: 1.5x the engine's
    default cache capacity. *)
let serve_distinct = 3 * Wsc_serve.Engine.default_capacity / 2

(** The traffic shape is assumed, not measured: there is no log of
    compile requests to fit it to.  [zipf_s] is the Zipf exponent of
    program popularity; 0.8 lies in the 0.64-0.83 range that Breslau et
    al. measured for web proxy requests ("Web Caching and Zipf-like
    Distributions: Evidence and Implications", INFOCOM 1999), which is
    web traffic, not compile traffic.  [respell_p], the probability that
    a request re-spells its program, has no source at all.
    BENCHMARK.md shows how the serve split moves with both. *)
let zipf_s = 0.8

let respell_p = 0.3

(** The five paper benchmarks as stencil IR on a 4x4 grid, 2 steps. *)
let benchmark_programs () : (string * P.t) list =
  List.map (fun (d : B.descr) -> (d.B.id, d.B.make_n (B.Proxy (4, 4)) 2)) B.all

let benchmark_source (id, p) =
  Printf.sprintf "// %s benchmark, 4x4 proxy, 2 steps\n%s" id
    (Wsc_ir.Printer.op_to_string (P.compile p))

(** Cosmetic re-spellings that leave the canonical module unchanged:
    [1] another comment and blank lines, [2] re-indented with every
    numbered value renumbered ([%12] becomes [%1012]).  Alphabetic
    names would not do: the parser keeps them as printing hints, so
    they reach the canonical text. *)
let respell (variant : int) (src : string) : string =
  let is_digit c = c >= '0' && c <= '9' in
  match variant with
  | 1 ->
      "// resubmitted by another client\n\n"
      ^ String.concat "\n\n" (String.split_on_char '\n' src)
  | 2 ->
      let n = String.length src in
      let b = Buffer.create (n * 2) in
      let rec go i line_start =
        if i < n then
          let c = src.[i] in
          if line_start && c = ' ' then begin
            Buffer.add_string b "  ";
            go (i + 1) true
          end
          else if c = '%' && i + 1 < n && is_digit src.[i + 1] then begin
            let j = ref (i + 1) in
            while !j < n && is_digit src.[!j] do incr j done;
            (* a numbered value; hinted names such as [%out_12] start with a letter *)
            Buffer.add_char b '%';
            Buffer.add_string b
              (string_of_int (1000 + int_of_string (String.sub src (i + 1) (!j - i - 1))));
            go !j false
          end
          else begin
            Buffer.add_char b c;
            go (i + 1) (c = '\n')
          end
      in
      go 0 true;
      Buffer.contents b
  | _ -> src

type serve_set = {
  spellings : string array array;  (** per program: variants 0..2 *)
  by_rank : int array;  (** popularity rank -> program *)
  cdf : float array;  (** cumulative Zipf weights over ranks *)
}

(** The working set of seed [seed]: fuzzer corpus cases of
    [campaign_seed seed] plus the five benchmarks, each in three
    spellings, ranked by a seeded permutation. *)
let serve_set ~seed : serve_set =
  let n_corpus = serve_distinct - List.length B.all in
  let corpus =
    List.init n_corpus (fun index ->
        Wsc_harden.Corpus.case_contents ~seed:(campaign_seed seed) ~index)
  in
  let all = Array.of_list (corpus @ List.map benchmark_source (benchmark_programs ())) in
  let n = Array.length all in
  let by_rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let h = hash [ s_rank; seed; i ] in
    let j = Int64.to_int (Int64.unsigned_rem h (Int64.of_int (i + 1))) in
    let t = by_rank.(i) in
    by_rank.(i) <- by_rank.(j);
    by_rank.(j) <- t
  done;
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_s));
    cdf.(r) <- !acc
  done;
  Array.iteri (fun r c -> cdf.(r) <- c /. !acc) cdf;
  {
    spellings = Array.map (fun src -> Array.init 3 (fun v -> respell v src)) all;
    by_rank;
    cdf;
  }

(** Request [i] of the stream: (program, spelling). *)
let serve_request ~seed (s : serve_set) (i : int) : int * int =
  let u = unit_float [ s_pick; seed; i ] in
  (* first rank whose cumulative weight reaches u *)
  let lo = ref 0 and hi = ref (Array.length s.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  let v = unit_float [ s_spelling; seed; i ] in
  let variant =
    if v >= respell_p then 0 else if v < respell_p /. 2.0 then 1 else 2
  in
  (s.by_rank.(!lo), variant)

(** {1 fuzz: campaign cases} *)

let fuzz_cases ~seed ~count : P.t array =
  let seed = campaign_seed seed in
  Array.init count (fun index -> Wsc_harden.Fuzz.generate ~seed ~index)
