(* Tests for the fabric simulator: end-to-end correctness of the compiled
   programs against the sequential reference, on both WSE generations and
   under every pipeline variant; plus the machine model's guard rails and
   the statistics the performance study relies on. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Machine = Wsc_wse.Machine
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host

let () = Core.Csl_stencil_interp.register ()
let check = Alcotest.(check bool)

(* CI reruns the whole suite under an alternative fabric driver by
   setting WSC_DRIVER (polling | sched | parallel) and WSC_DOMAINS;
   unset, everything runs under the default event driver *)
let default_driver =
  match Sys.getenv_opt "WSC_DRIVER" with
  | Some "polling" -> Fabric.Polling
  | Some ("sched" | "event") -> Fabric.Event_driven
  | Some "parallel" ->
      let domains =
        match Sys.getenv_opt "WSC_DOMAINS" with
        | Some s -> ( try int_of_string s with _ -> 2)
        | None -> 2
      in
      Fabric.Parallel domains
  | Some other -> invalid_arg ("WSC_DRIVER: unknown driver " ^ other)
  | None -> Fabric.Event_driven

let init_grids (p : P.t) =
  List.map
    (fun _ ->
      let g3 = I.grid_of_typ (P.field_type p) in
      I.init_grid g3;
      I.retensorize_grid g3)
    p.P.state

let simulate ?(options = Core.Pipeline.default_options)
    ?(machine = Machine.wse3) (p : P.t) : Host.t * I.grid list =
  let compiled = Core.Pipeline.compile ~options (P.compile p) in
  let h = Host.simulate ~driver:default_driver machine compiled (init_grids p) in
  (h, Host.read_all h)

let assert_matches name (p : P.t) out =
  let ref_grids = P.run_reference p in
  let maxd =
    List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff ref_grids out)
  in
  if maxd > 1e-4 then Alcotest.failf "%s: fabric differs by %g" name maxd

(* ------------------------------------------------------------------ *)
(* end-to-end correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_all_benchmarks_both_machines () =
  List.iter
    (fun (d : B.descr) ->
      List.iter
        (fun machine ->
          let p = d.make B.Tiny in
          let _, out = simulate ~machine p in
          assert_matches (d.id ^ " on " ^ machine.Machine.name) p out)
        [ Machine.wse2; Machine.wse3 ])
    B.all

let test_variants_end_to_end () =
  let base = Core.Pipeline.default_options in
  let variants =
    [
      ("2 chunks", { base with num_chunks_override = Some 2 });
      ("no promotion", { base with promote_coefficients = false });
      ("no one-shot", { base with one_shot_reduction = false });
      ("no fmac", { base with fuse_fmac = false; fuse_fmac_pass = false });
      ("no varith", { base with use_varith = false });
    ]
  in
  List.iter
    (fun (vname, options) ->
      List.iter
        (fun (d : B.descr) ->
          let p = d.make B.Tiny in
          let _, out = simulate ~options p in
          assert_matches (d.id ^ " " ^ vname) p out)
        B.all)
    variants

let test_multi_output_passthrough () =
  (* a producer whose value is both consumed by the next kernel and kept
     as state: inlining passes it through, giving a two-result apply that
     lowers via pack mode with two output buffers rotating *)
  let expr_a = P.Add (P.Access ("u", [ 1; 0; 0 ]), P.Access ("u", [ -1; 0; 0 ])) in
  let expr_b =
    P.Add (P.Mul (P.Const 0.5, P.Access ("a", [ 0; 0; 0 ])), P.Access ("u", [ 0; 1; 0 ]))
  in
  let p =
    {
      P.pname = "passthru";
      frontend = "test";
      extents = (4, 4, 6);
      halo = 1;
      state = [ "u"; "a_keep" ];
      kernels =
        [
          { P.kname = "ka"; output = "a"; expr = expr_a };
          { P.kname = "kb"; output = "b"; expr = expr_b };
        ];
      next_state = [ "b"; "a" ];
      iterations = 3;
      use_loop = true;
      dsl_loc = 0;
    }
  in
  let _, out = simulate p in
  assert_matches "multi-output passthrough" p out

let test_uvkbe_no_inlining () =
  let options = { Core.Pipeline.default_options with inline_stencils = false } in
  let p = (B.find "uvkbe").make B.Tiny in
  let _, out = simulate ~options p in
  assert_matches "uvkbe chained" p out

let test_more_iterations () =
  (* buffer rotation must hold up over many steps (odd and even counts) *)
  List.iter
    (fun n ->
      List.iter
        (fun id ->
          let p = (B.find id).make_n B.Tiny n in
          let _, out = simulate p in
          assert_matches (Printf.sprintf "%s x%d" id n) p out)
        [ "jacobian"; "acoustic" ])
    [ 1; 4; 7 ]

let test_rectangular_grid () =
  let p = (B.find "diffusion").make_n (B.Proxy (3, 7)) 2 in
  let _, out = simulate p in
  assert_matches "3x7 grid" p out

let test_boundary_dirichlet () =
  (* halo cells of the result equal the initial data exactly *)
  let p = (B.find "jacobian").make B.Tiny in
  let h, out = simulate p in
  ignore h;
  let g0 = I.grid_of_typ (P.field_type p) in
  I.init_grid g0;
  let g0 = I.retensorize_grid g0 in
  let out0 = List.hd out in
  I.iter_points g0.I.gbounds (fun pt ->
      match pt with
      | [ x; y ] when x < 0 || x >= 4 || y < 0 || y >= 4 -> (
          match (I.grid_get g0 pt, I.grid_get out0 pt) with
          | I.Rtensor a, I.Rtensor b ->
              Array.iteri
                (fun i v ->
                  if v <> b.(i) then Alcotest.fail "halo column changed")
                a
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* machine model guard rails                                           *)
(* ------------------------------------------------------------------ *)

let test_grid_too_large () =
  let p = (B.find "jacobian").make_n (B.Proxy (800, 4)) 1 in
  let compiled = Core.Pipeline.compile (P.compile p) in
  (* 800 > the WSE2's 750-wide fabric *)
  match Host.simulate Machine.wse2 compiled (init_grids p) with
  | exception Fabric.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected fabric-size error"

let test_wrong_state_count () =
  let p = (B.find "acoustic").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  match Host.simulate Machine.wse3 compiled [ List.hd (init_grids p) ] with
  | exception Host.Host_error _ -> ()
  | _ -> Alcotest.fail "expected state-count error"

(* ------------------------------------------------------------------ *)
(* timing and statistics                                               *)
(* ------------------------------------------------------------------ *)

let test_wse3_faster_than_wse2 () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let h2, _ = simulate ~machine:Machine.wse2 p in
      let h3, _ = simulate ~machine:Machine.wse3 p in
      check
        (d.id ^ ": WSE3 beats WSE2")
        true
        (Fabric.elapsed_cycles h3.sim < Fabric.elapsed_cycles h2.sim))
    B.all

let test_clock_monotone_in_iterations () =
  let t n =
    let p = (B.find "jacobian").make_n B.Tiny n in
    let h, _ = simulate p in
    Fabric.elapsed_cycles h.sim
  in
  let t2 = t 2 and t4 = t 4 and t6 = t 6 in
  check "t4 > t2" true (t4 > t2);
  check "t6 > t4" true (t6 > t4);
  (* steady state: equal increments within tolerance *)
  let d1 = t4 -. t2 and d2 = t6 -. t4 in
  check "linear steady state" true (Float.abs (d1 -. d2) < 0.2 *. d1)

let test_flops_match_expectation () =
  (* measured useful FLOPs = points x iterations x flops/point *)
  let d = B.find "jacobian" in
  let p = d.make_n B.Tiny 2 in
  let h, _ = simulate p in
  let stats = Fabric.total_stats h.sim in
  let nx, ny = B.xy_extents B.Tiny in
  let _, _, nz = p.P.extents in
  let expected = float_of_int (nx * ny * nz * 2 * 12) in
  (* 6-point jacobian, algorithmic counting: four promoted columns reduce
     with fmacs off the fabric (8 FLOPs) plus two z-neighbour fmacs (4) *)
  let ratio = stats.flops /. expected in
  check "flops in the expected band" true (ratio > 0.7 && ratio < 1.3)

let test_wse2_sends_cost_more () =
  let p = (B.find "jacobian").make B.Tiny in
  let h2, _ = simulate ~machine:Machine.wse2 p in
  let h3, _ = simulate ~machine:Machine.wse3 p in
  let s2 = (Fabric.total_stats h2.sim).send_cycles in
  let s3 = (Fabric.total_stats h3.sim).send_cycles in
  check "self-send doubles injection" true (s2 > 1.9 *. s3)

let test_task_activations_positive () =
  let p = (B.find "seismic").make B.Tiny in
  let h, _ = simulate p in
  let stats = Fabric.total_stats h.sim in
  check "tasks ran" true (stats.task_activations > 0);
  check "data moved" true (stats.elems_sent > 0);
  check "memory traffic" true (stats.mem_bytes > 0.0)

(* ------------------------------------------------------------------ *)
(* scheduler: driver equivalence, deadlock diagnostics, task order     *)
(* ------------------------------------------------------------------ *)

(* run one benchmark under a given driver and return everything the
   equivalence check compares; the host handle stays local so the PE
   grid is collectable between runs *)
let run_with_driver driver (p : P.t) =
  let compiled = Core.Pipeline.compile (P.compile p) in
  let h = Host.simulate ~driver Machine.wse3 compiled (init_grids p) in
  (Fabric.elapsed_cycles h.sim, Fabric.total_stats h.sim, Host.read_all h)

(* every driver the equivalence checks sweep: both sequential drivers
   and the domain-parallel driver at 1, 2 and 4 domains (1 exercises
   the sequential fallback, 2 and 4 the strip decomposition) *)
let all_drivers =
  [
    Fabric.Polling;
    Fabric.Event_driven;
    Fabric.Parallel 1;
    Fabric.Parallel 2;
    Fabric.Parallel 4;
  ]

let driver_label d =
  Printf.sprintf "%s/%d" (Fabric.driver_name d) (Fabric.driver_domains d)

let assert_drivers_agree ?(drivers = all_drivers) name (p : P.t) =
  let ce, se, oe = run_with_driver Fabric.Event_driven p in
  List.iter
    (fun driver ->
      let c, s, o = run_with_driver driver p in
      let name = name ^ " [" ^ driver_label driver ^ "]" in
      check (name ^ ": elapsed cycles bit-identical") true (c = ce);
      (match Fabric.stats_diff se s with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: aggregated pe_stats differ: %s" name msg);
      let maxd = List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff oe o) in
      check (name ^ ": outputs bit-identical") true (maxd = 0.0))
    drivers

let test_driver_equivalence_tiny () =
  List.iter
    (fun (d : B.descr) -> assert_drivers_agree (d.id ^ " tiny") (d.make B.Tiny))
    B.all

(* at 100x100 only the drivers whose path differs from the event-driven
   baseline: an Event_driven leg repeats the baseline and Parallel 1
   falls back to it, bit for bit; the tiny case and the property sweep
   all five *)
let test_driver_equivalence_small () =
  List.iter
    (fun (d : B.descr) ->
      assert_drivers_agree
        ~drivers:[ Fabric.Polling; Fabric.Parallel 2; Fabric.Parallel 4 ]
        (d.id ^ " small") (d.make_n B.Small 2))
    B.all

(* qcheck: for any fuzzer-generated program, all five driver
   configurations produce bit-identical cycles, stats and outputs *)
let prop_drivers_agree_on_fuzzed =
  QCheck.Test.make ~name:"drivers agree on fuzzer-generated programs"
    ~count:12 QCheck.small_nat (fun index ->
      let p = Wsc_harden.Fuzz.generate ~seed:23 ~index in
      assert_drivers_agree (Wsc_harden.Fuzz.describe p) p;
      true)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_deadlock_diagnostic () =
  let p = (B.find "jacobian").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let _, program = Core.Pipeline.modules_of compiled in
  List.iter
    (fun driver ->
      let h = Host.load Machine.wse3 program (init_grids p) in
      (* silence PE(1,0): convince its iteration counter it has already
         run every timestep, so it unblocks immediately and never sends;
         its neighbours then starve waiting on the first exchange *)
      let sim = h.Host.sim in
      sim.Fabric.pes.(1).(0).Fabric.scalars.(Fabric.scalar_slot sim "iteration") <- 1000;
      match Fabric.run_to_completion ~driver h.Host.sim with
      | () -> Alcotest.fail "expected a deadlock"
      | exception Fabric.Sim_error msg ->
          check "report names the condition" true (contains msg "deadlock");
          check "report names the exchange" true
            (contains msg "blocked on exchange (apply_id=");
          check "report names the silent sender" true
            (contains msg "missing sender PE(1,0)"))
    [ Fabric.Polling; Fabric.Event_driven; Fabric.Parallel 2 ]

(* a fault campaign cell must replay bit-identically under the parallel
   driver: same injection decisions, same integer recovery bookkeeping,
   same validity mask, same fault report.  (Only [recovery_cycles] — a
   float summed over PEs in driver-visit order — is exempt from the
   cross-driver contract.) *)
let test_fault_replay_parallel () =
  let module Faults = Wsc_faults.Faults in
  let p = (B.find "jacobian").make_n B.Tiny 3 in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let cfg =
    {
      Faults.default_config with
      seed = 11;
      drop_rate = 0.05;
      corrupt_rate = 0.02;
      resilience = Some Faults.default_resilience;
    }
  in
  let run driver =
    let faults = Faults.create cfg in
    let h = Host.simulate ~driver ~faults Machine.wse3 compiled (init_grids p) in
    let st = Faults.stats faults in
    ( Fabric.elapsed_cycles h.sim,
      Fabric.total_stats h.sim,
      Host.read_all h,
      Host.fault_report h,
      Host.validity h,
      ( st.Faults.drops,
        st.Faults.corrupts,
        st.Faults.stalls,
        st.Faults.halts,
        st.Faults.backpressures,
        st.Faults.retries,
        st.Faults.giveups,
        st.Faults.halt_timeouts ) )
  in
  let ce, se, oe, re, ve, ke = run Fabric.Event_driven in
  check "faults actually fired" true (let d, c, _, _, _, _, _, _ = ke in d + c > 0);
  List.iter
    (fun driver ->
      let name = "faults [" ^ driver_label driver ^ "]" in
      let c, s, o, r, v, k = run driver in
      check (name ^ ": elapsed cycles") true (c = ce);
      (match Fabric.stats_diff se s with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: pe_stats differ: %s" name msg);
      let maxd = List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff oe o) in
      check (name ^ ": outputs bit-identical") true (maxd = 0.0);
      check (name ^ ": fault report identical") true (r = re);
      check (name ^ ": validity mask identical") true (v = ve);
      check (name ^ ": fault counters identical") true (k = ke))
    [ Fabric.Polling; Fabric.Parallel 2; Fabric.Parallel 4 ]

(* regression for the PR 5 slowdown: the parallel driver must spawn its
   worker pool exactly once per run — [domains] domains total, however
   many barrier rounds the run takes — not once per strip per round *)
let test_worker_pool_spawns_once () =
  let p = (B.find "jacobian").make_n B.Tiny 6 in
  let compiled = Core.Pipeline.compile (P.compile p) in
  List.iter
    (fun domains ->
      let before = Fabric.domains_spawned () in
      let h =
        Host.simulate ~driver:(Fabric.Parallel domains) Machine.wse3 compiled
          (init_grids p)
      in
      ignore h;
      let spawned = Fabric.domains_spawned () - before in
      (* Parallel 1 falls back to the sequential event driver: no pool *)
      let expected = if domains <= 1 then 0 else domains in
      if spawned <> expected then
        Alcotest.failf "Parallel %d spawned %d domains, expected %d" domains
          spawned expected)
    [ 1; 2; 4 ]

(* qcheck: when a run exceeds its scan budget, every driver fails with
   the same divergence error at the same shared whole-grid bound — no
   strip gets a private allowance of its own *)
let prop_budget_trips_identically =
  let p = (B.find "jacobian").make_n B.Tiny 32 in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let _, program = Core.Pipeline.modules_of compiled in
  QCheck.Test.make ~name:"shared scan budget trips identically across drivers"
    ~count:3
    QCheck.(int_range 1 3)
    (fun max_rounds ->
      let outcome driver =
        let h = Host.load Machine.wse3 program (init_grids p) in
        match Fabric.run_to_completion ~max_rounds ~driver h.Host.sim with
        | () -> QCheck.Test.fail_report "expected the budget to trip"
        | exception Fabric.Sim_error msg -> msg
      in
      let reference = outcome Fabric.Event_driven in
      if not (contains reference "did not converge") then
        QCheck.Test.fail_reportf "unexpected error: %s" reference;
      List.iter
        (fun driver ->
          let msg = outcome driver in
          if msg <> reference then
            QCheck.Test.fail_reportf "%s: %S <> %S" (driver_label driver) msg
              reference)
        [ Fabric.Polling; Fabric.Parallel 2; Fabric.Parallel 4 ];
      true)

let test_task_order_earliest_first () =
  (* regression for the dispatch-order bug: the hardware scheduler runs
     the queued task with the earliest activation time, not the one that
     was queued first *)
  let module Csl = Core.Csl in
  let module Bld = Wsc_ir.Builder in
  let open Wsc_ir.Ir in
  let module Arith = Wsc_dialects.Arith in
  let b = Bld.create () in
  Bld.insert0 b (Csl.global_scalar ~name:"mark" ~typ:I32 ~init:(Int_attr 0));
  let mark_task name id v =
    Bld.insert0 b
      (Csl.task ~name ~kind:Csl.Local_task ~id (fun tb ->
           let c = Bld.insert tb (Arith.constant_i v) in
           Bld.insert0 tb (Csl.store_scalar ~name:"mark" c);
           Bld.insert0 tb (Csl.return_ ())))
  in
  mark_task "early" 1 7;
  mark_task "late" 2 8;
  (* the host's entry point, which the fabric requires at load *)
  Bld.insert0 b (Csl.func ~name:"run" (fun fb _ -> Bld.insert0 fb (Csl.return_ ())));
  let program = Csl.module_ ~kind:Csl.Program ~name:"task_order" (Bld.ops b) in
  List.iter
    (fun (k, v) -> set_attr program k (Int_attr v))
    [
      ("width", 1); ("height", 1); ("memory_bytes", 64);
      ("z_halo", 0); ("zfull", 1); ("nz", 1);
    ];
  let sim = Fabric.create Machine.wse3 program in
  let pe = sim.Fabric.pes.(0).(0) in
  let mark () = pe.Fabric.scalars.(Fabric.scalar_slot sim "mark") in
  (* two activations queued out of insertion order: "late" was inserted
     first but activates at t=100, "early" second but activates at t=50 *)
  pe.Fabric.task_queue <-
    [ (100.0, Fabric.find_fn sim "late"); (50.0, Fabric.find_fn sim "early") ];
  check "first pop ran" true (Fabric.run_tasks sim pe);
  check "earliest activation dispatched first" true (mark () = 7);
  check "clock did not jump to the later activation" true (pe.Fabric.clock < 100.0);
  check "second pop ran" true (Fabric.run_tasks sim pe);
  check "later activation dispatched second" true (mark () = 8);
  check "queue drained" true (pe.Fabric.task_queue = []);
  check "empty queue pops nothing" true (not (Fabric.run_tasks sim pe))

(* ------------------------------------------------------------------ *)
(* load-time errors: a program the fabric cannot run is refused when it *)
(* is staged, before any PE executes                                    *)
(* ------------------------------------------------------------------ *)

(* compiled jacobian with the first [opname] op of a function or task
   mutated by [f]; returns the program and where the op sits, as the
   error message names it ("csl.call in function loop_cond") *)
let mutated opname (f : Wsc_ir.Ir.op -> unit) =
  let open Wsc_ir.Ir in
  let p = (B.find "jacobian").make B.Tiny in
  let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
  let owner =
    List.find
      (fun o ->
        (o.opname = "csl.func" || o.opname = "csl.task")
        && find_ops_by_name opname o <> [])
      (Core.Csl.module_body program)
  in
  let o = List.hd (find_ops_by_name opname owner) in
  f o;
  let kind = if owner.opname = "csl.task" then "task" else "function" in
  (program, Printf.sprintf "%s in %s %s" o.opname kind (string_attr_exn owner "sym_name"))

let refused_at_load (program, where) detail =
  match Fabric.create Machine.wse3 program with
  | _ -> Alcotest.failf "%s: loaded, expected %S" where detail
  | exception Fabric.Sim_error msg ->
      if not (contains msg where && contains msg detail) then
        Alcotest.failf "error %S does not name %S and %S" msg where detail

let set_name key name o = Wsc_ir.Ir.set_attr o key (Wsc_ir.Ir.String_attr name)

(* rewrite the first input of a communicate config *)
let with_input f (o : Wsc_ir.Ir.op) =
  let open Wsc_ir.Ir in
  match attr_exn o "config" with
  | Dict_attr d ->
      let inputs =
        match List.assoc "inputs" d with
        | Array_attr (Dict_attr i :: rest) -> Array_attr (Dict_attr (f i) :: rest)
        | a -> a
      in
      set_attr o "config" (Dict_attr (("inputs", inputs) :: List.remove_assoc "inputs" d))
  | _ -> assert false

let test_load_unsupported_op () =
  refused_at_load
    (mutated "csl.fmovs" (fun o -> o.Wsc_ir.Ir.opname <- "csl.frobnicate"))
    "unsupported op"

let test_load_unknown_global () =
  refused_at_load (mutated "csl.get_global" (set_name "gname" "nope")) "no global buffer nope"

let test_load_unknown_scalar () =
  refused_at_load (mutated "csl.load_scalar" (set_name "gname" "nope")) "no scalar nope"

let test_load_unknown_pointer () =
  refused_at_load (mutated "csl.deref_ptr" (set_name "gname" "nope")) "no pointer nope"

let test_load_unknown_callee () =
  refused_at_load (mutated "csl.call" (set_name "callee" "nope")) "no function or task nope"

let test_load_unknown_task () =
  refused_at_load (mutated "csl.activate" (set_name "task" "nope")) "no function or task nope"

let test_load_malformed_config () =
  refused_at_load
    (mutated "csl.member_call" (with_input (fun i -> List.remove_assoc "rcv_bufs" i)))
    "config has no rcv_bufs";
  refused_at_load
    (mutated "csl.member_call" (fun o ->
         Wsc_ir.Ir.set_attr o "config" (Wsc_ir.Ir.Int_attr 0)))
    "config is not a dictionary"

(* the Dirichlet boundary of an exchanged input is its state grid's
   initial value, so a send pointer must name a state slot: another
   pointer used to read slot 0's boundary silently *)
let test_load_non_state_send_ptr () =
  refused_at_load
    (mutated "csl.member_call"
       (with_input (fun i ->
            ("send_ptr", Wsc_ir.Ir.String_attr "ptr_out0") :: List.remove_assoc "send_ptr" i)))
    "send_ptr ptr_out0 is not a state pointer"

(* ------------------------------------------------------------------ *)
(* executor bit-identity: digests pinned before the executor was staged *)
(* ------------------------------------------------------------------ *)

(* the programs the digests cover: the five benchmarks at proxy 8x8 for
   3 steps, jacobian at 2 and 4 chunks, seismic at 3 chunks, and fuzz
   campaign 12345 cases 0-63 *)
let executor_cases () : (Core.Pipeline.options * P.t) list =
  let base = Core.Pipeline.default_options in
  let proxy id = (B.find id).make_n (B.Proxy (8, 8)) 3 in
  let chunks n = { base with num_chunks_override = Some n } in
  List.map (fun (d : B.descr) -> (base, d.make_n (B.Proxy (8, 8)) 3)) B.all
  @ [ (chunks 2, proxy "jacobian"); (chunks 4, proxy "jacobian"); (chunks 3, proxy "seismic") ]
  @ List.init 64 (fun index -> (base, Wsc_harden.Fuzz.generate ~seed:12345 ~index))

(* two digests per driver: [bits] covers every read-back float, the
   elapsed cycles and every aggregated pe_stats field, and must agree
   across drivers; [sched] covers the scheduler counters, which are
   deterministic only under the sequential drivers *)
let executor_digests driver : string * string =
  let bits = Buffer.create (1 lsl 20) and sched = Buffer.create 4096 in
  let f buf x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let i buf n = Buffer.add_int64_le buf (Int64.of_int n) in
  List.iter
    (fun (options, p) ->
      let compiled = Core.Pipeline.compile ~options (P.compile p) in
      let h = Host.simulate ~driver Machine.wse3 compiled (init_grids p) in
      List.iter (fun (g : I.grid) -> Array.iter (f bits) g.I.gdata) (Host.read_all h);
      f bits (Fabric.elapsed_cycles h.Host.sim);
      let s = Fabric.total_stats h.Host.sim in
      List.iter (f bits) [ s.compute_cycles; s.send_cycles; s.wait_cycles; s.flops; s.mem_bytes ];
      List.iter (i bits) [ s.task_activations; s.elems_sent; s.elems_drained ];
      let k = Fabric.sched_stats h.Host.sim in
      List.iter (i sched)
        Fabric.Sched.[ k.scans; k.probes; k.wakeups; k.parks; k.max_queue_depth; k.max_live_sends ])
    (executor_cases ());
  let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (hex bits, hex sched)

let test_executor_bit_identity () =
  let expected_bits = "07bd7c6a2d98c75d6983b89f94c5b904" in
  List.iter
    (fun (driver, expected_sched) ->
      let bits, sched = executor_digests driver in
      let label = driver_label driver in
      Alcotest.(check string) (label ^ ": fields, cycles, stats") expected_bits bits;
      Option.iter
        (fun e -> Alcotest.(check string) (label ^ ": scheduler counters") e sched)
        expected_sched)
    [
      (Fabric.Polling, Some "fe5b2753e5b07412a0baa19424e05cb0");
      (Fabric.Event_driven, Some "394a088f7a08d8d05be0fa1736d371be");
      (Fabric.Parallel 2, None);
    ]

(* ------------------------------------------------------------------ *)
(* retained state                                                      *)
(* ------------------------------------------------------------------ *)

(* a finished run keeps its live heap bounded by the grid, not by grid x
   iterations: every send snapshot leaves the send table once all of its
   receivers have consumed it.  Live words are measured after a full
   collection with the host handle still reachable, so a table that kept
   one snapshot per PE per exchange would grow fourfold between N and 4N
   steps. *)
let bounded_heap_drivers = [ Fabric.Polling; Fabric.Event_driven; Fabric.Parallel 2 ]

let retained (driver : Fabric.driver) (p : P.t) =
  let compiled = Core.Pipeline.compile (P.compile p) in
  let h = Host.simulate ~driver Machine.wse3 compiled (init_grids p) in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let sends = Hashtbl.length h.Host.sim.Fabric.sends in
  let high_water = (Fabric.sched_stats h.Host.sim).Fabric.Sched.max_live_sends in
  ignore (Sys.opaque_identity h);
  (live, sends, high_water)

let test_bounded_heap () =
  let steps = 8 and w = 8 and h = 8 in
  List.iter
    (fun id ->
      let d = B.find id in
      List.iter
        (fun driver ->
          let name = Printf.sprintf "%s [%s]" id (driver_label driver) in
          let live1, sends1, _ = retained driver (d.make_n (B.Proxy (w, h)) steps) in
          let live4, sends4, _ =
            retained driver (d.make_n (B.Proxy (w, h)) (4 * steps))
          in
          if Float.abs (float_of_int (live4 - live1)) > 0.10 *. float_of_int live1
          then
            Alcotest.failf "%s: live heap %d words after %d steps, %d after %d"
              name live1 steps live4 (4 * steps);
          if sends1 > w * h || sends4 > w * h then
            Alcotest.failf "%s: %d / %d send records retained on %d PEs" name
              sends1 sends4 (w * h))
        bounded_heap_drivers)
    [ "jacobian"; "seismic" ]

(* the scheduler's high-water mark of live send records: positive, at
   least what a finished run still holds, and a few generations of the
   grid rather than one record per PE per exchange (which is what a
   table without eviction reaches: 32 steps x 64 PEs x every apply) *)
let test_live_sends_counter () =
  let w = 8 and h = 8 in
  let p = (B.find "jacobian").make_n (B.Proxy (w, h)) 32 in
  List.iter
    (fun driver ->
      let name = driver_label driver in
      let _, sends, high_water = retained driver p in
      if high_water <= 0 || high_water < sends || high_water > 4 * w * h then
        Alcotest.failf "%s: max_live_sends %d (%d retained, %d PEs)" name
          high_water sends (w * h))
    bounded_heap_drivers

(* ------------------------------------------------------------------ *)
(* custom initial data (host interface)                                *)
(* ------------------------------------------------------------------ *)

let test_custom_initial_data () =
  (* a constant field is a fixed point of the jacobian average *)
  let p = (B.find "jacobian").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let g = I.grid_of_typ (P.field_type p) in
  Array.fill g.I.gdata 0 (Array.length g.I.gdata) 3.5;
  let h = Host.simulate Machine.wse3 compiled [ I.retensorize_grid g ] in
  let out = Host.read_state h 0 in
  Array.iter
    (fun v -> if Float.abs (v -. 3.5) > 1e-5 then Alcotest.fail "not a fixed point")
    out.I.gdata

let () =
  Alcotest.run "sim"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all benchmarks, both machines" `Quick
            test_all_benchmarks_both_machines;
          Alcotest.test_case "pipeline variants" `Slow test_variants_end_to_end;
          Alcotest.test_case "uvkbe without inlining" `Quick test_uvkbe_no_inlining;
          Alcotest.test_case "multi-output passthrough" `Quick
            test_multi_output_passthrough;
          Alcotest.test_case "iteration counts" `Quick test_more_iterations;
          Alcotest.test_case "rectangular grid" `Quick test_rectangular_grid;
          Alcotest.test_case "dirichlet boundary" `Quick test_boundary_dirichlet;
        ] );
      ( "guards",
        [
          Alcotest.test_case "grid too large" `Quick test_grid_too_large;
          Alcotest.test_case "wrong state count" `Quick test_wrong_state_count;
        ] );
      ( "timing",
        [
          Alcotest.test_case "wse3 faster" `Quick test_wse3_faster_than_wse2;
          Alcotest.test_case "monotone clock" `Quick test_clock_monotone_in_iterations;
          Alcotest.test_case "flop accounting" `Quick test_flops_match_expectation;
          Alcotest.test_case "self-send cost" `Quick test_wse2_sends_cost_more;
          Alcotest.test_case "stats positive" `Quick test_task_activations_positive;
        ] );
      ( "scheduler",
        Alcotest.test_case "driver equivalence (tiny)" `Quick
          test_driver_equivalence_tiny
        :: Alcotest.test_case "driver equivalence (small)" `Slow
             test_driver_equivalence_small
        :: Alcotest.test_case "deadlock diagnostic" `Quick test_deadlock_diagnostic
        :: Alcotest.test_case "fault replay across drivers" `Quick
             test_fault_replay_parallel
        :: Alcotest.test_case "worker pool spawns once" `Quick
             test_worker_pool_spawns_once
        :: Alcotest.test_case "earliest activation first" `Quick
             test_task_order_earliest_first
        :: Alcotest.test_case "executor bit-identity" `Quick test_executor_bit_identity
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_drivers_agree_on_fuzzed; prop_budget_trips_identically ] );
      ( "load-time",
        [
          Alcotest.test_case "unsupported op" `Quick test_load_unsupported_op;
          Alcotest.test_case "unknown global" `Quick test_load_unknown_global;
          Alcotest.test_case "unknown scalar" `Quick test_load_unknown_scalar;
          Alcotest.test_case "unknown pointer" `Quick test_load_unknown_pointer;
          Alcotest.test_case "unknown callee" `Quick test_load_unknown_callee;
          Alcotest.test_case "unknown task" `Quick test_load_unknown_task;
          Alcotest.test_case "malformed communicate config" `Quick
            test_load_malformed_config;
          Alcotest.test_case "non-state send pointer" `Quick test_load_non_state_send_ptr;
        ] );
      ( "retention",
        [
          Alcotest.test_case "bounded heap" `Quick test_bounded_heap;
          Alcotest.test_case "live sends counter" `Quick test_live_sends_counter;
        ] );
      ( "host",
        [ Alcotest.test_case "custom initial data" `Quick test_custom_initial_data ] );
    ]
