(** What every workload shares: passes timed in a closed loop for a
    fixed number of seconds, per-operation latencies, the correctness
    tally, and the untraced / traced phases of a run. *)

(** One pass over a workload's fixed unit of work. *)
type pass = {
  wall : float;  (** seconds *)
  lats : float list;  (** seconds per operation *)
  attempted : int;
  failed : int;
  failures : string list;  (** first messages, for the report *)
}

(** Time one operation, turning an exception into a failure.  [f]
    returns [None] when its output checked out, [Some why] otherwise. *)
let op (f : unit -> string option) : float * string option =
  let t0 = Unix.gettimeofday () in
  let verdict = try f () with e -> Some (Printexc.to_string e) in
  (Unix.gettimeofday () -. t0, verdict)

(** Fold operations into a pass: [ops] is a list of (latency, verdict). *)
let pass_of ~wall (ops : (float * string option) list) : pass =
  let failures = List.filter_map snd ops in
  {
    wall;
    lats = List.map fst ops;
    attempted = List.length ops;
    failed = List.length failures;
    failures;
  }

(** No operations: what [finish] reports when it checks nothing more. *)
let empty = pass_of ~wall:0.0 []

(** One pass of a single client: every operation, timed and checked,
    inside a [bench.pass] span. *)
let run_pass b (ops : (unit -> string option) list) : pass =
  let t0 = Unix.gettimeofday () in
  let results = Tracer.span b "bench.pass" (fun () -> List.map op ops) in
  pass_of ~wall:(Unix.gettimeofday () -. t0) results

(** Run passes until [seconds] have gone by (the pass in flight
    completes) or [max_passes] ran; at least one. *)
let loop ~seconds ?(max_passes = max_int) (f : unit -> pass) : pass list =
  let t_end = Unix.gettimeofday () +. seconds in
  let rec go k acc =
    let acc = f () :: acc in
    if k + 1 >= max_passes || Unix.gettimeofday () >= t_end then List.rev acc
    else go (k + 1) acc
  in
  go 0 []

(** A workload, generic in its prepared state. *)
type 'st t = {
  name : string;
  setup : seed:int -> 'st;  (** build the inputs: timed as [setup_s] *)
  phase :
    'st -> Tracer.buf list -> seconds:float -> ?max_passes:int -> unit -> pass list;
      (** run passes; successive calls continue where the last stopped *)
  traced_cap : int option;  (** pass cap of the traced phase (trace size) *)
  probe : 'st -> Tracer.buf -> unit;
      (** traced runs only, outside both phases: counters that are too
          costly to take inside a timed pass (live heap) *)
  finish : 'st -> float * pass;
      (** after the timed part: simulated cycles per timestep (geomean
          over the programs it ran) and any post-run correctness checks *)
  per_pass : 'st -> float;  (** operations per pass, for the report *)
}

(** Set-ups are timed at least [setups] times and until [setup_budget]
    seconds went into them; [setup_s] is their median.  The budget makes
    a set-up of a few milliseconds a median of dozens.  No collection is
    forced between them: on OCaml 5.1 each [Gc.full_major] leaves the
    major heap growing faster afterwards, so forcing hundreds of them
    would make [peak_rss_mb] depend on how cheap the set-up is. *)
let setups = 5
let setup_budget = 0.5

type outcome = {
  setup_s : float;
  untraced : pass list;
  traced : pass list;
  post : pass;
  sim_cycles_per_iter : float;
  bufs : Tracer.buf list;
  epoch : float;
  ops_per_pass : float;
}

let run (w : 'st t) ~seed ~seconds ~(trace : bool) ~(clients : int) : outcome =
  let times = ref [] and st = ref None in
  (* one untimed set-up first: it pays for heap growth and code warm-up *)
  ignore (w.setup ~seed);
  let spent = ref 0.0 in
  while List.compare_length_with !times setups < 0 || !spent < setup_budget do
    let t0 = Unix.gettimeofday () in
    let s = w.setup ~seed in
    let dt = Unix.gettimeofday () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt;
    st := Some s
  done;
  let st = Option.get !st in
  let bufs = List.init clients (fun c -> Tracer.create (c + 1)) in
  let epoch = Unix.gettimeofday () in
  let untraced, traced =
    if not trace then (w.phase st bufs ~seconds (), [])
    else begin
      let u = w.phase st bufs ~seconds:(seconds /. 2.0) () in
      Tracer.set_enabled true;
      let t =
        Fun.protect
          ~finally:(fun () -> Tracer.set_enabled false)
          (fun () ->
            w.phase st bufs ~seconds:(seconds /. 2.0) ?max_passes:w.traced_cap ())
      in
      w.probe st (List.hd bufs);
      (u, t)
    end
  in
  let sim, post = w.finish st in
  {
    setup_s = Measure.median !times;
    untraced;
    traced;
    post;
    sim_cycles_per_iter = sim;
    bufs;
    epoch;
    ops_per_pass = w.per_pass st;
  }
