(** Workload [fuzz]: a seeded [Fuzz.generate] campaign through
    [Oracle.check] with its default tiers — reference, mid-level
    interpretation, fabric, the print/parse fixpoint at every pass
    boundary, and the 1x1 / 2x1 multi-wafer co-simulation.

    The oracle is one call, so a traced run cannot see its tiers from
    outside.  Traced passes therefore run [mirror]: the same tiers in
    the same order through the same public functions, each in its own
    span, with the same verdicts.  Untraced passes call the oracle
    itself. *)

module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Pass = Wsc_ir.Pass
module Pipeline = Wsc_core.Pipeline
module Oracle = Wsc_harden.Oracle
module Cosim = Wsc_multiwafer.Cosim
module L = Layers
module T = Wsc_trace.Trace

(** Cases of the campaign, all checked in every pass: each pass does the
    same work, so pass walls differ by noise alone, and the traced and
    untraced halves of a run time the same cases.  The block is large
    enough that its total barely depends on which cases the seed drew. *)
let block = 256

type st = { cases : P.t array }

let setup ~seed : st =
  Wsc_core.Csl_stencil_interp.register ();
  { cases = Gen.fuzz_cases ~seed ~count:block }

(** The oracle's print -> parse -> print fixpoint check of one module. *)
let roundtrip b pass m =
  Tracer.span_args b "ir.roundtrip"
    (fun () ->
      let s1 = Wsc_ir.Printer.op_to_string m in
      let s2 = Wsc_ir.Printer.op_to_string (Wsc_ir.Parser.parse_string s1) in
      if not (String.equal s1 s2) then
        failwith ("print->parse->print is not a fixpoint after " ^ pass);
      String.length s1)
    (fun n -> [ ("bytes", T.Aint n) ])
  |> ignore

(** [Oracle.check p] tier by tier; [None] when every tier agrees. *)
let mirror b (p : P.t) : string option =
  Tracer.span b "oracle" (fun () ->
      let tol = Oracle.tolerance in
      let bad d = Float.is_nan d || d >= tol in
      let refs =
        Tracer.span_args b "interp.reference"
          (fun () -> P.run_reference p)
          (fun _ -> [ ("point_steps", T.Aint (L.point_steps p)) ])
      in
      let m0 = L.stencil_ir b p in
      (* the oracle keeps the entry IR's text for its failure reports *)
      ignore (Wsc_ir.Printer.op_to_string m0);
      let pass_options =
        { Pass.default_options with verify_each = true; on_ir = Some (roundtrip b) }
      in
      let group = L.group ~pass_options b in
      let m1 =
        m0
        |> group "pipeline.frontend_passes" (Pipeline.frontend_passes L.options)
        |> group "pipeline.middle_passes" (Pipeline.middle_passes L.options)
      in
      let grids = Cosim.init_grids p in
      Tracer.span b "csl_stencil_interp" (fun () ->
          ignore (I.run_func m1 ~name:"main" (List.map (fun g -> I.Rgrid g) grids)));
      let d = L.max_diff refs grids in
      if bad d then Some (Printf.sprintf "interp tier: max |diff| %.3e" d)
      else
        let compiled =
          group "pipeline.backend_passes" (Pipeline.backend_passes L.options) m1
        in
        let _, outs =
          L.simulate b ~bench:"fuzz" ~iters:p.P.iterations compiled (Cosim.init_grids p)
        in
        let d = L.max_diff refs outs in
        if bad d then Some (Printf.sprintf "fabric tier: max |diff| %.3e" d)
        else
          let engine = Wsc_serve.Engine.create ~options:L.options () in
          let nx, _, _ = p.P.extents in
          List.find_map
            (fun (wx, wy) ->
              let d0 = Cosim.domains_spawned () in
              let r =
                Tracer.span_args b "cosim"
                  (fun () -> Cosim.run ~engine ~machine:L.machine ~wafers:(wx, wy) p)
                  (fun _ -> [ ("domains", T.Aint (Cosim.domains_spawned () - d0)) ])
              in
              if Cosim.grids_bit_identical outs r.Cosim.grids then None
              else Some (Printf.sprintf "%dx%d co-simulation is not bit-identical" wx wy))
            ((1, 1) :: (if nx >= 2 then [ (2, 1) ] else [])))

let oracle b p =
  if Tracer.enabled () then mirror b p
  else
    let r = Oracle.check p in
    Option.map Oracle.failure_to_string r.Oracle.failure

let phase st bufs ~seconds ?max_passes () =
  let b = List.hd bufs in
  let ops = List.map (fun p () -> oracle b p) (Array.to_list st.cases) in
  Harness.loop ~seconds ?max_passes (fun () -> Harness.run_pass b ops)

let finish st =
  let cycles =
    Array.to_list st.cases
    |> List.map (fun p ->
           let compiled = Pipeline.compile ~options:L.options (P.compile p) in
           let h = Wsc_wse.Host.simulate L.machine compiled (Cosim.init_grids p) in
           L.cycles_per_iter h ~iters:p.P.iterations)
  in
  (Measure.geomean cycles, Harness.empty)

let workload : st Harness.t =
  {
    name = "fuzz";
    setup;
    phase;
    traced_cap = None;
    probe = (fun _ _ -> ());
    finish;
    per_pass = (fun _ -> float_of_int block);
  }
