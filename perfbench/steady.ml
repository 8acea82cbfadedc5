(** Workload [steady]: the five compiled benchmarks on the fabric
    simulator alone, on a larger grid for many timesteps.  Inputs are
    the fixed [Cosim.init_grids] initialisation (the seed does not
    change them), so outputs are checked against fingerprints derived
    once from the sequential reference and stored with the benchmark. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module L = Layers

let grid = (32, 32)
let steps = 16

type prog = {
  id : string;
  p : P.t;
  compiled : Wsc_ir.Ir.op;
  init : I.grid list;
  expected : Expected.grid_fp list;
}

type st = { progs : prog list; cycles : (string, float) Hashtbl.t }

let programs ?(grid = grid) ?(steps = steps) () : (string * P.t) list =
  let x, y = grid in
  List.map (fun (d : B.descr) -> (d.B.id, d.B.make_n (B.Proxy (x, y)) steps)) B.all

(** Compile every benchmark; [expected] supplies each one's fingerprints
    (the stored file, or none when only counts are wanted). *)
let prepare ?grid ?steps (expected : string -> Expected.grid_fp list) : st =
  let progs =
    List.map
      (fun (id, p) ->
        {
          id;
          p;
          compiled = Wsc_core.Pipeline.compile ~options:L.options (P.compile p);
          init = Wsc_multiwafer.Cosim.init_grids p;
          expected = expected id;
        })
      (programs ?grid ?steps ())
  in
  { progs; cycles = Hashtbl.create 5 }

let setup ~seed:_ : st =
  match Expected.load ~grid ~steps with
  | Error msg -> failwith (Printf.sprintf "%s: %s" Expected.path msg)
  | Ok stored ->
      prepare (fun id ->
          match List.assoc_opt id stored with
          | Some fps -> fps
          | None -> failwith (Printf.sprintf "%s: no entry for %s" Expected.path id))

let run_prog ?(after_run = fun () -> ()) b st (g : prog) : string option =
  Tracer.span b "bench.op" (fun () ->
      let iters = g.p.P.iterations in
      let h, outs = L.simulate b ~bench:g.id ~iters g.compiled g.init in
      after_run ();
      Hashtbl.replace st.cycles g.id (L.cycles_per_iter h ~iters);
      Expected.compare ~bench:g.id g.expected outs)

let one_pass b st = Harness.run_pass b (List.map (fun g () -> run_prog b st g) st.progs)

let phase st bufs ~seconds ?max_passes () =
  let b = List.hd bufs in
  Harness.loop ~seconds ?max_passes (fun () -> one_pass b st)

let probe st b =
  List.iter
    (fun g ->
      ignore
        (run_prog b st g ~after_run:(fun () ->
             Tracer.count b "fabric.live_mb" (L.live_mb ()))))
    st.progs

let finish st =
  ( Measure.geomean (Hashtbl.fold (fun _ c acc -> c :: acc) st.cycles []),
    Harness.empty )

(** The sequential reference's final state grids of the steady programs. *)
let reference_outputs () : (string * I.grid list) list =
  List.map (fun (id, p) -> (id, P.run_reference p)) (programs ())

let workload : st Harness.t =
  {
    name = "steady";
    setup;
    phase;
    traced_cap = None;
    probe;
    finish;
    per_pass = (fun st -> float_of_int (List.length st.progs));
  }
