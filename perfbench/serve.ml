(** Workload [serve]: a closed loop of [Engine.compile_source] requests
    from [clients] client domains — each sends its next request when the
    previous one returns.  Requests follow a seeded Zipf draw over a
    working set 1.5x the engine's cache capacity, and some repeats are
    cosmetically re-spelled.  No simulation and no reference run: only
    keying, compiling, CSL emission and the LRU.

    Correctness: set-up compiles every program of the working set once,
    cold, outside the engine and its cache.  Every request must compile,
    get the key of its program's first spelling, and return files
    byte-identical to that program's own cold compile, hit or miss — so
    two different programs that wrongly share a key fail the gate
    unless their outputs are the same. *)

module Engine = Wsc_serve.Engine
module Cache = Wsc_serve.Cache
module Pass = Wsc_ir.Pass
module Pipeline = Wsc_core.Pipeline
module T = Wsc_trace.Trace

let clients = 2

(** Requests per pass. *)
let block = 2000

(** What every request for one program must produce. *)
type expected = { key : string; files : (string * string) list }

type st = {
  seed : int;
  set : Gen.serve_set;
  engine : Engine.t;
  group_of_pass : (string, string) Hashtbl.t;  (** pass name -> group span *)
  expected : expected array;  (** per program *)
  mutable next : int;  (** index of the next request in the stream *)
}

(** The key of [src] and its CSL files compiled with the engine's
    options, but through [Pipeline.compile] and [Csl_printer] directly:
    no cache is involved. *)
let cold_compile engine (src : string) : expected =
  match Engine.key_of_source engine src with
  | Error e -> failwith ("serve: a working-set program does not parse: " ^ e.Engine.e_message)
  | Ok key ->
      let lowered =
        Pipeline.compile ~options:(Engine.options engine) (Wsc_ir.Parser.parse_string src)
      in
      let files =
        List.map
          (fun (f : Wsc_core.Csl_printer.file) -> (f.filename, f.contents))
          (Wsc_core.Csl_printer.print_files lowered)
      in
      { key; files }

let setup ?(capacity = Engine.default_capacity) ~seed () : st =
  let group_of_pass = Hashtbl.create 16 in
  List.iter
    (fun (group, passes) ->
      List.iter (fun n -> Hashtbl.replace group_of_pass n group) (Pass.pass_names passes))
    [
      ("pipeline.frontend_passes", Pipeline.frontend_passes Layers.options);
      ("pipeline.middle_passes", Pipeline.middle_passes Layers.options);
      ("pipeline.backend_passes", Pipeline.backend_passes Layers.options);
    ];
  let set = Gen.serve_set ~seed in
  let engine = Engine.create ~capacity () in
  let expected = Array.map (fun spellings -> cold_compile engine spellings.(0)) set.Gen.spellings in
  { seed; set; engine; group_of_pass; expected; next = 0 }

(** The engine's own phase stamps and pass remarks, as child spans of
    the request: keying, the pass groups of a cold compile laid end to
    end from the end of keying, and emission. *)
let stamp_phases b st (r : Engine.result) =
  let tm = r.Engine.timing in
  match r.Engine.outcome with
  | Error _ -> ()
  | Ok c ->
      Tracer.stamped b "engine.key" ~t0:tm.Engine.t_start ~t1:tm.Engine.t_parsed
        ~args:[ ("bytes", T.Aint c.Engine.canonical_bytes) ];
      if r.Engine.cache = Some `Miss then begin
        let at = ref tm.Engine.t_parsed in
        let groups = ref [] in
        List.iter
          (fun (rm : Pass.remark) ->
            let t0 = !at in
            at := t0 +. rm.Pass.r_wall_s +. rm.Pass.r_verify_s;
            let g =
              Option.value
                (Hashtbl.find_opt st.group_of_pass rm.Pass.r_pass)
                ~default:"pipeline.other"
            in
            match !groups with
            | (g', g0, _) :: rest when g' = g -> groups := (g, g0, !at) :: rest
            | l -> groups := (g, t0, !at) :: l)
          c.Engine.remarks;
        List.iter
          (fun (g, t0, t1) -> Tracer.stamped b g ~t0 ~t1)
          (List.rev !groups);
        let bytes = List.fold_left (fun n (_, s) -> n + String.length s) 0 c.Engine.files in
        Tracer.stamped b "csl_printer" ~t0:tm.Engine.t_compiled ~t1:tm.Engine.t_done
          ~args:[ ("bytes", T.Aint bytes) ]
      end

let request b st src : Engine.result =
  Tracer.span_dyn b
    (fun () ->
      let r = Engine.compile_source st.engine src in
      stamp_phases b st r;
      r)
    (fun r ->
      match r.Engine.cache with
      | Some `Hit -> "engine.hit"
      | Some `Miss -> "engine.miss"
      | None -> "engine.error")
    (fun r ->
      match (r.Engine.outcome, r.Engine.cache) with
      | Ok c, Some `Miss -> [ ("ops_out", T.Aint c.Engine.ops_out) ]
      | _ -> [])

(** [None] when a result for program [prog] checks out. *)
let check st ~prog (r : Engine.result) : string option =
  match r.Engine.outcome with
  | Error e -> Some ("compile failed: " ^ e.Engine.e_message)
  | Ok c ->
      let e = st.expected.(prog) in
      let same (a, x) (b, y) = String.equal a b && String.equal x y in
      if not (String.equal c.Engine.key e.key) then
        Some (Printf.sprintf "program %d: a spelling keys differently" prog)
      else if not (List.equal same e.files c.Engine.files) then
        Some (Printf.sprintf "program %d: output differs from its cold compile" prog)
      else None

let snapshot_cache b st =
  let s = Engine.cache_stats st.engine in
  Tracer.count b "cache.hits" (float_of_int s.Cache.hits);
  Tracer.count b "cache.misses" (float_of_int s.Cache.misses);
  Tracer.count b "cache.evictions" (float_of_int s.Cache.evictions);
  Tracer.count b "cache.dedup_hits" (float_of_int s.Cache.dedup_hits)

(** Run the clients until [seconds] are up (then to the end of the
    current block of [block] requests) or [max_passes] blocks are done.
    Each block of the stream is one pass; its wall time runs from the
    completion of the previous block's last request to its own. *)
let phase st bufs ~seconds ?(max_passes = max_int) () =
  let first = st.next in
  let traced = Tracer.enabled () in
  if traced then snapshot_cache (List.hd bufs) st;
  let limit = if max_passes = max_int then max_int else first + (max_passes * block) in
  let stop_at = Atomic.make limit and counter = Atomic.make first in
  let t_start = Unix.gettimeofday () in
  let t_end = t_start +. seconds in
  let rec lower_stop i =
    let cur = Atomic.get stop_at in
    let boundary = first + ((((i - first) / block) + 1) * block) in
    if boundary < cur && not (Atomic.compare_and_set stop_at cur boundary) then lower_stop i
  in
  let client b () =
    let rec go acc =
      let i = Atomic.fetch_and_add counter 1 in
      if i >= Atomic.get stop_at then acc
      else begin
        let prog, variant = Gen.serve_request ~seed:st.seed st.set i in
        let t0 = Unix.gettimeofday () in
        let r = request b st st.set.Gen.spellings.(prog).(variant) in
        let t1 = Unix.gettimeofday () in
        let verdict = check st ~prog r in
        if t1 >= t_end then lower_stop i;
        go ((i, t1 -. t0, t1, verdict) :: acc)
      end
    in
    go []
  in
  let domains = List.map (fun b -> Domain.spawn (client b)) bufs in
  let done_ = List.concat_map Domain.join domains in
  if traced then snapshot_cache (List.hd bufs) st;
  let stop = Atomic.get stop_at in
  let last = List.fold_left (fun m (i, _, _, _) -> max m i) (first - 1) done_ in
  st.next <- max stop (last + 1);
  let blocks = max 1 ((min stop (last + 1) - first + block - 1) / block) in
  let ends = Array.make blocks t_start and ops = Array.make blocks [] in
  List.iter
    (fun (i, lat, t1, verdict) ->
      let k = min (blocks - 1) ((i - first) / block) in
      ends.(k) <- Float.max ends.(k) t1;
      ops.(k) <- (lat, verdict) :: ops.(k))
    done_;
  List.init blocks (fun k ->
      let prev = if k = 0 then t_start else ends.(k - 1) in
      Harness.pass_of ~wall:(Float.max 0.0 (ends.(k) -. prev)) ops.(k))

(** The five benchmarks' compiled code, as the engine serves it,
    simulated for their cycles per step. *)
let finish st =
  let cycles =
    List.map
      (fun (id, (p : Wsc_frontends.Stencil_program.t)) ->
        let src = Gen.benchmark_source (id, p) in
        match (Engine.compile_source st.engine src).Engine.outcome with
        | Error e -> failwith ("serve: " ^ id ^ " failed to compile: " ^ e.Engine.e_message)
        | Ok c ->
            let h =
              Wsc_wse.Host.simulate Layers.machine c.Engine.lowered
                (Wsc_multiwafer.Cosim.init_grids p)
            in
            Layers.cycles_per_iter h ~iters:p.Wsc_frontends.Stencil_program.iterations)
      (Gen.benchmark_programs ())
  in
  (Measure.geomean cycles, Harness.empty)

let workload : st Harness.t =
  {
    name = "serve";
    setup = (fun ~seed -> setup ~seed ());
    phase;
    traced_cap = Some 8;
    probe = (fun _ _ -> ());
    finish;
    per_pass = (fun _ -> float_of_int block);
  }
