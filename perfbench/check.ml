(** Workload [check]: the [wsc simulate] path for all five benchmarks on
    a small proxy grid with the benchmarks' real z extents — frontend,
    stencil IR, the three pass groups, CSL printing, fabric simulation
    and readback, the sequential reference, and the comparison at the
    oracle's tolerance.  The seed draws the initial field values; both
    executions start from the same values. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module L = Layers

(** 6x6 keeps a pass under a second, so a 20-second run gives more than
    100 latency samples and its tail is p90: the slowest benchmark's
    median.  With fewer, the tail is p75, which falls on the boundary
    between the two slowest benchmarks and jumps between them. *)
let size = B.Proxy (6, 6)
let steps = 2

type case = {
  d : B.descr;
  fields : I.grid list;  (** seeded, 3-D scalar: copied per reference run *)
  tensors : I.grid list;  (** the same values as z-column tensors *)
}

type st = {
  size : B.size;
  cases : case list;
  cycles : (string, float) Hashtbl.t;  (** cycles per step, per benchmark *)
}

let setup ?(size = size) ~seed () : st =
  Wsc_core.Csl_stencil_interp.register ();
  let cases =
    List.mapi
      (fun bench (d : B.descr) ->
        let fields = Gen.fields ~seed ~bench (d.B.make_n size steps) in
        { d; fields; tensors = List.map I.retensorize_grid fields })
      B.all
  in
  { size; cases; cycles = Hashtbl.create 5 }

(** One benchmark end to end; [None] when the fabric matches the
    reference.  [after_run] sees the finished simulation. *)
let run_case ?(after_run = fun () -> ()) b st (c : case) : string option =
  Tracer.span b "bench.op" (fun () ->
      let p = L.frontend b c.d st.size steps in
      let compiled = L.pipeline b (L.stencil_ir b p) in
      ignore (L.print_csl b compiled);
      let h, outs = L.simulate b ~bench:c.d.B.id ~iters:steps compiled c.tensors in
      after_run ();
      Hashtbl.replace st.cycles c.d.B.id (L.cycles_per_iter h ~iters:steps);
      let refs = List.map I.copy_grid c.fields in
      L.reference b p (L.stencil_ir b p) refs;
      let diff = L.max_diff refs outs in
      if Float.is_nan diff || diff >= Wsc_harden.Oracle.tolerance then
        Some (Printf.sprintf "%s: max |diff| %.3e vs the reference" c.d.B.id diff)
      else None)

let one_pass b st = Harness.run_pass b (List.map (fun c () -> run_case b st c) st.cases)

let phase st bufs ~seconds ?max_passes () =
  let b = List.hd bufs in
  Harness.loop ~seconds ?max_passes (fun () -> one_pass b st)

let probe st b =
  List.iter
    (fun c ->
      ignore
        (run_case b st c ~after_run:(fun () ->
             Tracer.count b "fabric.live_mb" (L.live_mb ()))))
    st.cases

let finish st =
  ( Measure.geomean (Hashtbl.fold (fun _ c acc -> c :: acc) st.cycles []),
    Harness.empty )

let workload : st Harness.t =
  {
    name = "check";
    setup = (fun ~seed -> setup ~seed ());
    phase;
    traced_cap = None;
    probe;
    finish;
    per_pass = (fun st -> float_of_int (List.length st.cases));
  }
