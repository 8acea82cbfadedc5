(* Tests for the standard dialects and the sequential reference
   interpreter: op constructors, dialect verifiers, grid machinery,
   arithmetic/control-flow evaluation and stencil-apply semantics. *)

open Wsc_ir.Ir
module B = Wsc_ir.Builder
module I = Wsc_dialects.Interp
module Arith = Wsc_dialects.Arith
module Scf = Wsc_dialects.Scf
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin
module Stencil = Wsc_dialects.Stencil
module Dmp = Wsc_dialects.Dmp
module Varith = Wsc_dialects.Varith

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* interpreter: scalars and control flow                               *)
(* ------------------------------------------------------------------ *)

let run_scalar_fn body =
  let f =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let r = body b in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ f ] in
  Wsc_ir.Verifier.verify m;
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat f ] -> f
  | [ I.Rint i ] -> float_of_int i
  | _ -> Alcotest.fail "expected one scalar"

let test_arith_eval () =
  let r =
    run_scalar_fn (fun b ->
        let x = B.insert b (Arith.constant_f 3.0) in
        let y = B.insert b (Arith.constant_f 4.0) in
        let s = B.insert b (Arith.addf x y) in
        let d = B.insert b (Arith.subf s y) in
        let p = B.insert b (Arith.mulf d y) in
        B.insert b (Arith.divf p y))
  in
  check_float "(((3+4)-4)*4)/4" 3.0 r

let test_varith_eval () =
  let r =
    run_scalar_fn (fun b ->
        let c v = B.insert b (Arith.constant_f v) in
        let s = B.insert b (Varith.add [ c 1.0; c 2.0; c 3.0; c 4.0 ]) in
        let m = B.insert b (Varith.mul [ s; c 0.5 ]) in
        m)
  in
  check_float "varith" 5.0 r

let test_scf_for_eval () =
  (* sum 0..9 via float iteration value *)
  let f =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let lb = B.insert b (Arith.constant_index 0) in
        let ub = B.insert b (Arith.constant_index 10) in
        let st = B.insert b (Arith.constant_index 1) in
        let init = B.insert b (Arith.constant_f 0.0) in
        let one = B.insert b (Arith.constant_f 1.0) in
        let loop =
          Scf.for_ ~lb ~ub ~step:st ~iter_args:[ init ] (fun bb _iv args ->
              let acc = List.hd args in
              let acc' = B.insert bb (Arith.addf acc one) in
              B.insert0 bb (Scf.yield [ acc' ]))
        in
        let r = B.insert b loop in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ f ] in
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat r ] -> check_float "loop ran 10x" 10.0 r
  | _ -> Alcotest.fail "bad result"

let test_scf_if_eval () =
  let r =
    run_scalar_fn (fun b ->
        let x = B.insert b (Arith.constant_i 3) in
        let y = B.insert b (Arith.constant_i 5) in
        let c = B.insert b (Arith.cmpi ~pred:"slt" x y) in
        B.insert b
          (Scf.if_ ~cond:c ~results:[ F32 ]
             (fun tb -> B.insert0 tb (Scf.yield [ B.insert tb (Arith.constant_f 1.0) ]))
             (fun eb -> B.insert0 eb (Scf.yield [ B.insert eb (Arith.constant_f 2.0) ]))))
  in
  check_float "then branch" 1.0 r

let test_func_call () =
  let callee =
    Func.func ~name:"double" ~args:[ F32 ] ~results:[ F32 ] (fun b args ->
        let two = B.insert b (Arith.constant_f 2.0) in
        let r = B.insert b (Arith.mulf two (List.hd args)) in
        B.insert0 b (Func.return_ [ r ]))
  in
  let main =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let x = B.insert b (Arith.constant_f 21.0) in
        let r = B.insert b (Func.call ~callee:"double" [ x ] ~results:[ F32 ]) in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ callee; main ] in
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat r ] -> check_float "call" 42.0 r
  | _ -> Alcotest.fail "bad result"

(* ------------------------------------------------------------------ *)
(* grids                                                               *)
(* ------------------------------------------------------------------ *)

let test_grid_indexing () =
  let g = I.make_grid [ (-1, 3); (-1, 3) ] F32 in
  I.grid_set_scalar g [ -1; -1 ] 1.5;
  I.grid_set_scalar g [ 2; 2 ] 2.5;
  check_float "corner lo" 1.5 (I.grid_get_scalar g [ -1; -1 ]);
  check_float "corner hi" 2.5 (I.grid_get_scalar g [ 2; 2 ]);
  check "out of bounds" true
    (match I.grid_get_scalar g [ 3; 0 ] with
    | exception I.Interp_error _ -> true
    | _ -> false)

let test_grid_tensor_elems () =
  let g = I.make_grid [ (0, 2); (0, 2) ] (Tensor ([ 3 ], F32)) in
  I.grid_set g [ 1; 0 ] (I.Rtensor [| 1.0; 2.0; 3.0 |]);
  (match I.grid_get g [ 1; 0 ] with
  | I.Rtensor a ->
      check_float "col 0" 1.0 a.(0);
      check_float "col 2" 3.0 a.(2)
  | _ -> Alcotest.fail "expected tensor");
  check "wrong size rejected" true
    (match I.grid_set g [ 0; 0 ] (I.Rtensor [| 1.0 |]) with
    | exception I.Interp_error _ -> true
    | _ -> false)

let test_retensorize_layout () =
  let g3 = I.make_grid [ (0, 2); (0, 2); (-1, 2) ] F32 in
  I.init_grid g3;
  let g2 = I.retensorize_grid g3 in
  check_int "same storage size" (Array.length g3.I.gdata) (Array.length g2.I.gdata);
  (* column (1,1) of the 2-D view equals the z-run of the 3-D view *)
  match I.grid_get g2 [ 1; 1 ] with
  | I.Rtensor col ->
      List.iteri
        (fun k z ->
          check_float
            (Printf.sprintf "col elem %d" k)
            (I.grid_get_scalar g3 [ 1; 1; z ])
            col.(k))
        [ -1; 0; 1 ]
  | _ -> Alcotest.fail "expected tensor"

let test_iter_points_order () =
  let pts = ref [] in
  I.iter_points [ (0, 2); (0, 2) ] (fun p -> pts := p :: !pts);
  check "row major" true
    (List.rev !pts = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ])

(* ------------------------------------------------------------------ *)
(* stencil apply semantics                                             *)
(* ------------------------------------------------------------------ *)

(* an apply over [(0, 4); (0, 1); (0, 1)] of a grid with an x halo of 1
   (3-D types as the dialect wants); [body] maps the block arg to the
   returned value *)
let apply_module body =
  let gt = Temp ([ (-1, 4); (0, 1); (0, 1) ], F32) in
  let ft = Field ([ (-1, 4); (0, 1); (0, 1) ], F32) in
  let f =
    Func.func ~name:"main" ~args:[ ft ] ~results:[] (fun b args ->
        let t = B.insert b (Stencil.load (List.hd args)) in
        let ap =
          Stencil.apply
            ~compute_bounds:[ (0, 4); (0, 1); (0, 1) ]
            ~inputs:[ t ] ~result_type:gt
            (fun bb bargs -> B.insert0 bb (Stencil.return_ [ body bb (List.hd bargs) ]))
        in
        B.insert0 b (Stencil.store (B.insert b ap) (List.hd args));
        B.insert0 b (Func.return_ []))
  in
  (Builtin.module_op [ f ], ft)

let test_apply_shift_and_dirichlet () =
  let m, ft = apply_module (fun bb u -> B.insert bb (Stencil.access u ~offset:[ -1; 0; 0 ])) in
  let g = I.grid_of_typ ft in
  List.iteri (fun i x -> I.grid_set_scalar g [ x; 0; 0 ] (float_of_int i)) [ -1; 0; 1; 2; 3 ];
  ignore (I.run_func m ~name:"main" [ I.Rgrid g ]);
  (* interior shifted right by one *)
  check_float "x=0 gets old x=-1" 0.0 (I.grid_get_scalar g [ 0; 0; 0 ]);
  check_float "x=3 gets old x=2" 3.0 (I.grid_get_scalar g [ 3; 0; 0 ]);
  (* the halo cell keeps its Dirichlet value *)
  check_float "halo unchanged" 0.0 (I.grid_get_scalar g [ -1; 0; 0 ])

let test_apply_verifier () =
  (* block args must mirror operands *)
  let gt = Temp ([ (0, 2); (0, 2); (0, 2) ], F32) in
  let t = new_value gt in
  let bad =
    create_op "stencil.apply" ~operands:[ t ] ~results:[ gt ]
      ~regions:[ new_region [ new_block ~args:[] [] ] ]
  in
  match Wsc_ir.Verifier.verify_registered (Builtin.module_op []) with
  | () -> (
      match Wsc_ir.Verifier.verify (Builtin.module_op [ bad ]) with
      | exception Wsc_ir.Verifier.Verification_error _ -> ()
      | () -> Alcotest.fail "expected apply verifier error")

let test_access_rank_check () =
  let t = new_value (Temp ([ (0, 2); (0, 2) ], F32)) in
  let a = Stencil.access t ~offset:[ 1; 0; 0 ] in
  let m = Builtin.module_op [ a ] in
  (* operand of a is free, so check only the registered verifier *)
  match Wsc_ir.Verifier.verify_registered m with
  | exception Wsc_ir.Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected rank error"

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let expect_interp_error name ~mentions body =
  let m, ft = apply_module body in
  match I.run_func m ~name:"main" [ I.Rgrid (I.grid_of_typ ft) ] with
  | exception I.Interp_error msg ->
      List.iter
        (fun s ->
          if not (contains msg s) then
            Alcotest.failf "%s: error %S does not mention %S" name msg s)
        mentions
  | _ -> Alcotest.failf "%s: expected Interp_error" name

let test_apply_access_out_of_bounds () =
  (* x = 0 - 2 is below the grid's lower bound -1 *)
  expect_interp_error "access" ~mentions:[ "stencil.access"; "-2"; "-1..4" ] (fun bb u ->
      B.insert bb (Stencil.access u ~offset:[ -2; 0; 0 ]))

let test_apply_unsupported_op () =
  expect_interp_error "unsupported" ~mentions:[ "unsupported op"; "arith.addi" ] (fun bb _ ->
      let i = B.insert bb (Arith.constant_index 1) in
      ignore (B.insert bb (Arith.addi i i));
      B.insert bb (Arith.constant_f 0.0))

(* ------------------------------------------------------------------ *)
(* dmp swaps                                                           *)
(* ------------------------------------------------------------------ *)

let test_dmp_roundtrip () =
  let swaps =
    [
      { Dmp.dir = Dmp.East; depth = 2; z_lo = 0; z_hi = 10 };
      { Dmp.dir = Dmp.South; depth = 1; z_lo = 1; z_hi = 9 };
    ]
  in
  let a = Dmp.swap_attr swaps in
  check "swap attr roundtrip" true (Dmp.swaps_of_attr a = swaps);
  let t = new_value (Temp ([ (0, 4); (0, 4) ], Tensor ([ 10 ], F32))) in
  let sw = Dmp.swap t ~topology:(4, 4) ~swaps in
  check "topology" true (Dmp.topology sw = (4, 4));
  check_int "volume" ((2 * 10) + 8) (Dmp.exchange_volume sw)

let test_direction_names () =
  List.iter
    (fun d ->
      check "name roundtrip" true
        (Dmp.direction_of_string (Dmp.direction_to_string d) = d))
    Dmp.all_directions

(* ------------------------------------------------------------------ *)
(* linalg / memref / tensor constructors                               *)
(* ------------------------------------------------------------------ *)

let test_linalg_dps () =
  let m1 = new_value (Memref ([ 8 ], F32)) in
  let m2 = new_value (Memref ([ 8 ], F32)) in
  let add = Wsc_dialects.Linalg_d.add ~a:m1 ~b:m2 ~out:m2 in
  check "no results" true (add.results = []);
  check "dst is last" true ((Wsc_dialects.Linalg_d.dst add).vid = m2.vid);
  let fmac = Wsc_dialects.Linalg_d.fmac ~a:m1 ~b:m2 ~out:m1 ~scalar:0.5 in
  check_float "scalar attr" 0.5 (float_attr_exn fmac "scalar")

let test_tensor_slice_bounds () =
  let t = new_value (Tensor ([ 8 ], F32)) in
  let ok = Wsc_dialects.Tensor_d.extract_slice t ~offset:2 ~size:6 in
  Wsc_ir.Verifier.verify_registered (Builtin.module_op [])
  |> fun () ->
  ignore ok;
  let bad = Wsc_dialects.Tensor_d.extract_slice t ~offset:4 ~size:6 in
  match Wsc_ir.Verifier.verify_registered (Builtin.module_op [ bad ]) with
  | exception Wsc_ir.Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected slice bounds error"

(* ------------------------------------------------------------------ *)
(* bit-identity: digests of the IEEE bits of every output float,       *)
(* recorded from the point-by-point interpreter the staged one replaced *)
(* ------------------------------------------------------------------ *)

module P = Wsc_frontends.Stencil_program
module Bench = Wsc_benchmarks.Benchmarks
module Core = Wsc_core

let digest_of (each : (I.grid list -> unit) -> unit) : string =
  let buf = Buffer.create (1 lsl 20) in
  each
    (List.iter (fun (g : I.grid) ->
         Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) g.I.gdata));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_digest name expected each = Alcotest.(check string) name expected (digest_of each)

let test_reference_bits_benchmarks () =
  check_digest "run_reference, five benchmarks, 6x6, 2 steps" "2254ec5312062f56affba5475be2b46f" (fun add ->
      List.iter
        (fun (d : Bench.descr) -> add (P.run_reference (d.Bench.make_n (Bench.Proxy (6, 6)) 2)))
        Bench.all)

let test_reference_bits_fuzz () =
  check_digest "run_reference, fuzz seed 12345, cases 0-255" "a5820c6fb74699b7a737f331214062c8" (fun add ->
      for index = 0 to 255 do
        add (P.run_reference (Wsc_harden.Fuzz.generate ~seed:12345 ~index))
      done)

(* recorded from the per-point staging that row staging replaced:
   non-square, so each run has several rows and a row length other
   than x *)
let test_reference_bits_proxy () =
  check_digest "run_reference, five benchmarks, 7x3, 3 steps" "1ae398b86daa3eebae1719816024da53" (fun add ->
      List.iter
        (fun (d : Bench.descr) -> add (P.run_reference (d.Bench.make_n (Bench.Proxy (7, 3)) 3)))
        Bench.all)

(* a scalar apply of any rank over [cb] of a grid with a halo of 1 in
   every dimension: every float op the staging knows, a constant made
   outside the body, and accesses along the row and across it *)
let low_rank_bits cb add =
  let bounds = List.map (fun (lb, ub) -> (lb - 1, ub + 1)) cb in
  let ft = Field (bounds, F32) and gt = Temp (bounds, F32) in
  let at d x = List.mapi (fun i _ -> if i = d then x else 0) cb in
  let last = List.length cb - 1 in
  let f =
    Func.func ~name:"main" ~args:[ ft ] ~results:[] (fun b args ->
        let k = B.insert b (Arith.constant_f 0.375) in
        let t = B.insert b (Stencil.load (List.hd args)) in
        let ap =
          Stencil.apply ~compute_bounds:cb ~inputs:[ t ] ~result_type:gt (fun bb bargs ->
              let u = List.hd bargs in
              let acc off = B.insert bb (Stencil.access u ~offset:off) in
              let c = acc (at 0 0) and e = acc (at last 1) and w = acc (at last (-1)) in
              let n = acc (at 0 1) in
              let s = B.insert bb (Varith.add [ e; w; n ]) in
              let p = B.insert bb (Varith.mul [ s; k; c ]) in
              let three = B.insert bb (Arith.constant_f 3.0) in
              let q = B.insert bb (Arith.divf p three) in
              let r = B.insert bb (Arith.subf q (B.insert bb (Arith.mulf c k))) in
              B.insert0 bb (Stencil.return_ [ B.insert bb (Arith.addf r e) ]))
        in
        B.insert0 b (Stencil.store (B.insert b ap) (List.hd args));
        B.insert0 b (Func.return_ []))
  in
  let g = I.grid_of_typ ft in
  I.init_grid g;
  ignore (I.run_func (Builtin.module_op [ f ]) ~name:"main" [ I.Rgrid g ]);
  add [ g ]

let test_low_rank_bits () =
  check_digest "rank-2 scalar apply" "b712617733ab2a377ae7407c42a247ee" (low_rank_bits [ (0, 5); (-2, 7) ]);
  check_digest "rank-1 scalar apply" "744c96bf94a4919661cd9b95b610dd15" (low_rank_bits [ (1, 12) ])

(* the tensorized module after [passes], on the reference's initial data *)
let tensorized_bits passes add =
  List.iter
    (fun (d : Bench.descr) ->
      let p = d.Bench.make Bench.Tiny in
      let m = Wsc_ir.Pass.run_pipeline passes (P.compile p) in
      let grids =
        List.map
          (fun _ ->
            let g = I.grid_of_typ (P.field_type p) in
            I.init_grid g;
            I.retensorize_grid g)
          p.P.state
      in
      ignore (I.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
      add grids)
    Bench.all

let group1 =
  [ Core.Stencil_inlining.pass; Core.Distribute.distribute_pass; Core.Distribute.tensorize_pass ]

let test_tensorized_bits () =
  check_digest "after group 1, Tiny" "e00f2253102453a5eb7c9704f343fc43" (tensorized_bits group1);
  check_digest "after group 2, Tiny" "7a272b84faea346e14071004ac4f270f"
    (tensorized_bits
       (group1 @ [ Core.Varith_passes.to_varith_pass; Core.Varith_passes.fuse_repeated_pass ]))

(* ------------------------------------------------------------------ *)
(* property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_grid_roundtrip =
  QCheck.Test.make ~name:"grid set/get roundtrip" ~count:200
    QCheck.(
      triple (int_range 0 3) (int_range 0 3) (float_range (-100.0) 100.0))
    (fun (x, y, v) ->
      let g = I.make_grid [ (-1, 4); (-1, 4) ] F32 in
      I.grid_set_scalar g [ x; y ] v;
      I.grid_get_scalar g [ x; y ] = v)

let prop_flat_index_bijective =
  QCheck.Test.make ~name:"flat_index is a bijection" ~count:50 QCheck.unit
    (fun () ->
      let g = I.make_grid [ (-1, 3); (0, 2); (-2, 1) ] F32 in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      I.iter_points g.I.gbounds (fun p ->
          let ix = I.flat_index g p in
          if Hashtbl.mem seen ix then ok := false;
          Hashtbl.replace seen ix ());
      !ok && Hashtbl.length seen = Array.length g.I.gdata)

let prop_elementwise_matches_scalar =
  QCheck.Test.make ~name:"tensor arith matches scalar arith" ~count:200
    QCheck.(pair (list_of_size (Gen.return 5) (float_range (-10.) 10.))
              (list_of_size (Gen.return 5) (float_range 1.0 10.)))
    (fun (xs, ys) ->
      let a = I.Rtensor (Array.of_list xs) and b = I.Rtensor (Array.of_list ys) in
      match I.elementwise2 ( +. ) a b with
      | I.Rtensor r ->
          List.for_all2 (fun x (y, i) -> r.(i) = x +. y)
            xs
            (List.mapi (fun i y -> (y, i)) ys)
      | _ -> false)

let () =
  Alcotest.run "dialects"
    [
      ( "interp-scalar",
        [
          Alcotest.test_case "arith" `Quick test_arith_eval;
          Alcotest.test_case "varith" `Quick test_varith_eval;
          Alcotest.test_case "scf.for" `Quick test_scf_for_eval;
          Alcotest.test_case "scf.if" `Quick test_scf_if_eval;
          Alcotest.test_case "func.call" `Quick test_func_call;
        ] );
      ( "grids",
        [
          Alcotest.test_case "indexing" `Quick test_grid_indexing;
          Alcotest.test_case "tensor elements" `Quick test_grid_tensor_elems;
          Alcotest.test_case "retensorize layout" `Quick test_retensorize_layout;
          Alcotest.test_case "iter order" `Quick test_iter_points_order;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "apply shift + dirichlet" `Quick
            test_apply_shift_and_dirichlet;
          Alcotest.test_case "apply verifier" `Quick test_apply_verifier;
          Alcotest.test_case "access rank" `Quick test_access_rank_check;
          Alcotest.test_case "apply access out of bounds" `Quick
            test_apply_access_out_of_bounds;
          Alcotest.test_case "apply unsupported op" `Quick test_apply_unsupported_op;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "reference, benchmarks" `Quick test_reference_bits_benchmarks;
          Alcotest.test_case "reference, fuzz" `Quick test_reference_bits_fuzz;
          Alcotest.test_case "tensorized, groups 1-2" `Quick test_tensorized_bits;
          Alcotest.test_case "reference, 7x3 benchmarks" `Quick test_reference_bits_proxy;
          Alcotest.test_case "rank-1 and rank-2 applies" `Quick test_low_rank_bits;
        ] );
      ( "dmp",
        [
          Alcotest.test_case "swap roundtrip" `Quick test_dmp_roundtrip;
          Alcotest.test_case "direction names" `Quick test_direction_names;
        ] );
      ( "dps",
        [
          Alcotest.test_case "linalg" `Quick test_linalg_dps;
          Alcotest.test_case "tensor slice bounds" `Quick test_tensor_slice_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_grid_roundtrip; prop_flat_index_bijective; prop_elementwise_matches_scalar ]
      );
    ]
