(** The [steady] workload's expected outputs: a fingerprint of each final
    state grid, derived once from the sequential reference and stored
    with the benchmark ([steady_expected.json]).  A fingerprint holds
    the grid's sum and absolute sum and its values at seeded sample
    points; outputs must match every sample within the oracle's
    tolerance and each sum within that tolerance times the grid size. *)

module I = Wsc_dialects.Interp
module J = Wsc_trace.Json

let path = "perfbench/steady_expected.json"
let samples_per_grid = 256
let tolerance = Wsc_harden.Oracle.tolerance

type grid_fp = { n : int; sum : float; abs_sum : float; samples : (int * float) list }

(** Per benchmark id, one fingerprint per state grid. *)
type t = (string * grid_fp list) list

(** Sum and absolute sum, in a loop that allocates nothing. *)
let sums (a : float array) : float * float =
  let s = ref 0.0 and s_abs = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i);
    s_abs := !s_abs +. Float.abs a.(i)
  done;
  (!s, !s_abs)

let fingerprint ~(bench : string) (grids : I.grid list) : grid_fp list =
  List.mapi
    (fun gi (g : I.grid) ->
      let a = g.I.gdata in
      let n = Array.length a in
      let sample k =
        let h = Gen.hash [ 5; Hashtbl.hash bench; gi; k ] in
        let i = Int64.to_int (Int64.unsigned_rem h (Int64.of_int n)) in
        (i, a.(i))
      in
      let sum, abs_sum = sums a in
      { n; sum; abs_sum; samples = List.init samples_per_grid sample })
    grids

let near ~tol a b =
  (not (Float.is_nan a)) && (not (Float.is_nan b)) && Float.abs (a -. b) < tol

(** [None] when [grids] match the fingerprints, else the first mismatch. *)
let compare ~(bench : string) (fps : grid_fp list) (grids : I.grid list) : string option =
  if List.length fps <> List.length grids then
    Some (Printf.sprintf "%s: %d state grids, expected %d" bench (List.length grids)
            (List.length fps))
  else
    List.combine fps grids
    |> List.mapi (fun gi (fp, (g : I.grid)) ->
           let a = g.I.gdata in
           let bound = tolerance *. float_of_int fp.n in
           if Array.length a <> fp.n then
             Some (Printf.sprintf "%s grid %d: %d points, expected %d" bench gi
                     (Array.length a) fp.n)
           else
             let off (i, v) = not (near ~tol:tolerance a.(i) v) in
             match List.find_opt off fp.samples with
             | Some (i, v) ->
                 Some (Printf.sprintf "%s grid %d point %d: %.9g, expected %.9g" bench gi i
                         a.(i) v)
             | None ->
                 let s, s_abs = sums a in
                 if not (near ~tol:bound s fp.sum && near ~tol:bound s_abs fp.abs_sum) then
                   Some
                     (Printf.sprintf "%s grid %d: sum %.9g / abs %.9g, expected %.9g / %.9g"
                        bench gi s s_abs fp.sum fp.abs_sum)
                 else None)
    |> List.find_map Fun.id

(** {1 Storage} *)

let to_json ~(grid : int * int) ~(steps : int) (t : t) : J.t =
  let fp_json fp =
    J.Obj
      [
        ("n", J.Int fp.n);
        ("sum", J.Float fp.sum);
        ("abs_sum", J.Float fp.abs_sum);
        ( "samples",
          J.List (List.map (fun (i, v) -> J.List [ J.Int i; J.Float v ]) fp.samples) );
      ]
  in
  J.Obj
    [
      ("grid", J.List [ J.Int (fst grid); J.Int (snd grid) ]);
      ("steps", J.Int steps);
      ( "benchmarks",
        J.Obj (List.map (fun (id, fps) -> (id, J.List (List.map fp_json fps))) t) );
    ]

let of_json ~(grid : int * int) ~(steps : int) (j : J.t) : (t, string) result =
  let num k o = Option.bind (J.member k o) J.to_number_opt in
  let int_of k o = Option.map int_of_float (num k o) in
  let fp o =
    let samples = Option.bind (J.member "samples" o) J.to_list_opt in
    match (int_of "n" o, num "sum" o, num "abs_sum" o, samples) with
    | Some n, Some sum, Some abs_sum, Some samples ->
        let samples =
          List.filter_map
            (function
              | J.List [ i; v ] -> (
                  match (J.to_number_opt i, J.to_number_opt v) with
                  | Some i, Some v -> Some (int_of_float i, v)
                  | _ -> None)
              | _ -> None)
            samples
        in
        Some { n; sum; abs_sum; samples }
    | _ -> None
  in
  let stored_grid =
    match Option.bind (J.member "grid" j) J.to_list_opt with
    | Some [ x; y ] -> (J.to_number_opt x, J.to_number_opt y)
    | _ -> (None, None)
  in
  if stored_grid <> (Some (float_of_int (fst grid)), Some (float_of_int (snd grid)))
     || int_of "steps" j <> Some steps
  then Error "stored expected values are for another grid or step count"
  else
    match J.member "benchmarks" j with
    | Some (J.Obj benches) ->
        let parsed =
          List.map
            (fun (id, fps) ->
              let fps = Option.value (J.to_list_opt fps) ~default:[] in
              (id, List.filter_map fp fps, List.length fps))
            benches
        in
        if List.exists (fun (_, ok, all) -> List.length ok <> all) parsed then
          Error "malformed fingerprint"
        else Ok (List.map (fun (id, fps, _) -> (id, fps)) parsed)
    | _ -> Error "no benchmarks"

let load ~grid ~steps : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match J.of_string text with
      | Error msg -> Error msg
      | Ok j -> of_json ~grid ~steps j)

let save ~grid ~steps (t : t) : unit =
  Out_channel.with_open_text path (fun oc ->
      J.to_channel oc (to_json ~grid ~steps t);
      output_char oc '\n')
