(** The benchmark's calls into the compiler's layers, each wrapped in a
    span named after the layer, with the counts the layer reports as
    span arguments.  With tracing off the wrappers cost one branch. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Pass = Wsc_ir.Pass
module Pipeline = Wsc_core.Pipeline
module F = Wsc_wse.Fabric
module Host = Wsc_wse.Host
module T = Wsc_trace.Trace

let machine = Wsc_wse.Machine.wse3
let options = Pipeline.default_options

(** Frontend: the benchmark's DSL source to a stencil program. *)
let frontend b (d : B.descr) size iters : P.t =
  Tracer.span b "frontends" (fun () -> d.B.make_n size iters)

(** Stencil program to stencil-dialect IR (part of the frontends
    library, so it counts as frontend time). *)
let stencil_ir b (p : P.t) = Tracer.span b "frontends" (fun () -> P.compile p)

let count_ops m = Wsc_ir.Ir.count_ops (fun _ -> true) m

(** One pass group, run as [Pipeline.compile] runs it. *)
let group ?pass_options b name passes m =
  Tracer.span_args b name
    (fun () -> Pass.run_pipeline ?options:pass_options passes m)
    (fun m ->
      if name = "pipeline.backend_passes" then [ ("ops_out", T.Aint (count_ops m)) ]
      else [])

(** The three pass groups: stencil IR to the csl modules. *)
let pipeline ?pass_options b m =
  m
  |> group ?pass_options b "pipeline.frontend_passes" (Pipeline.frontend_passes options)
  |> group ?pass_options b "pipeline.middle_passes" (Pipeline.middle_passes options)
  |> group ?pass_options b "pipeline.backend_passes" (Pipeline.backend_passes options)

let print_csl b compiled =
  Tracer.span_args b "csl_printer"
    (fun () -> Wsc_core.Csl_printer.print_files compiled)
    (fun files ->
      [
        ( "bytes",
          T.Aint
            (List.fold_left
               (fun n (f : Wsc_core.Csl_printer.file) -> n + String.length f.contents)
               0 files) );
      ])

(** Simulated cycles per timestep of a finished run. *)
let cycles_per_iter (h : Host.t) ~iters =
  F.elapsed_cycles h.Host.sim /. float_of_int (max 1 iters)

(** Load, run and read back on the fabric simulator. *)
let simulate b ~bench ~iters compiled grids : Host.t * I.grid list =
  let _, program = Pipeline.modules_of compiled in
  let h = Tracer.span b "host.load" (fun () -> Host.load machine program grids) in
  Tracer.span_args b "fabric.run"
    (fun () -> Host.run h)
    (fun () ->
      let st = F.total_stats h.Host.sim and k = F.sched_stats h.Host.sim in
      [
        ("runs." ^ bench, T.Aint 1);
        ("cycles_per_iter." ^ bench, T.Afloat (cycles_per_iter h ~iters));
        ("elems_sent", T.Aint st.F.elems_sent);
        ("task_activations", T.Aint st.F.task_activations);
        ("scans", T.Aint k.F.Sched.scans);
        ("wakeups", T.Aint k.F.Sched.wakeups);
        ("parks", T.Aint k.F.Sched.parks);
      ]);
  let outs = Tracer.span b "host.read" (fun () -> Host.read_all h) in
  (h, outs)

(** Grid points times timesteps: the reference's unit of work. *)
let point_steps (p : P.t) =
  let nx, ny, nz = p.P.extents in
  nx * ny * nz * p.P.iterations

(** The sequential reference on [grids] (3-D scalar, updated in place). *)
let reference b (p : P.t) module_ (grids : I.grid list) =
  Tracer.span_args b "interp.reference"
    (fun () ->
      ignore (I.run_func module_ ~name:"main" (List.map (fun g -> I.Rgrid g) grids)))
    (fun () -> [ ("point_steps", T.Aint (point_steps p)) ])

(** Max |difference| over all state grids. *)
let max_diff (a : I.grid list) (b : I.grid list) : float =
  List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff a b)

(** Live heap in MB after a full collection (costly: probes only). *)
let live_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0
