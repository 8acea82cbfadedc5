(* Tests of the benchmark itself: its generators are pure functions of
   the seed, and the exact counts it reports repeat bit for bit. *)

open Perfbench
module I = Wsc_dialects.Interp
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program

let check_inputs_pure () =
  let p = (B.find "acoustic").B.make_n (B.Proxy (2, 2)) 2 in
  let data seed = List.map (fun (g : I.grid) -> g.I.gdata) (Gen.fields ~seed ~bench:2 p) in
  Alcotest.(check bool) "same seed, same fields" true (data 7 = data 7);
  Alcotest.(check bool) "another seed, other fields" false (data 7 = data 8)

let serve_stream_pure () =
  let stream seed =
    let s = Gen.serve_set ~seed in
    (s.Gen.spellings, List.init 3000 (Gen.serve_request ~seed s))
  in
  let a = stream 7 in
  Alcotest.(check bool) "same seed, same stream" true (a = stream 7);
  Alcotest.(check bool) "another seed, another stream" false (snd a = snd (stream 8))

let fuzz_cases_pure () =
  let cases seed = Gen.fuzz_cases ~seed ~count:16 in
  Alcotest.(check bool) "same seed, same cases" true (cases 7 = cases 7);
  Alcotest.(check bool) "another seed, other cases" false (cases 7 = cases 8)

let respellings_key_alike () =
  let s = Gen.serve_set ~seed:3 in
  let engine = Wsc_serve.Engine.create () in
  let key src =
    match Wsc_serve.Engine.key_of_source engine src with
    | Ok k -> k
    | Error e -> Alcotest.fail e.Wsc_serve.Engine.e_message
  in
  Array.iteri
    (fun prog spellings ->
      if prog mod 50 = 0 || prog >= Array.length s.Gen.spellings - 5 then
        let k = key spellings.(0) in
        Array.iter
          (fun src -> Alcotest.(check string) (Printf.sprintf "program %d" prog) k (key src))
          spellings)
    s.Gen.spellings

(* The serve gate compares every response with the cold compile of the
   request's own program, so a key shared by two programs is only
   harmless when their outputs are the same. *)
let distinct_programs_key_apart () =
  let st = Serve.setup ~seed:3 () in
  let owner = Hashtbl.create 1024 in
  Array.iteri
    (fun prog (e : Serve.expected) ->
      match Hashtbl.find_opt owner e.Serve.key with
      | None -> Hashtbl.replace owner e.Serve.key (prog, e.Serve.files)
      | Some (other, files) ->
          if files <> e.Serve.files then
            Alcotest.failf "programs %d and %d share a key but compile differently" other
              prog)
    st.Serve.expected;
  Alcotest.(check bool) "most programs key apart" true
    (Hashtbl.length owner > Array.length st.Serve.expected / 2)

(* Traced fuzz passes run [Fuzz.mirror] in place of [Oracle.check]: the
   two must reach the same verdict through the same tiers. *)
let mirror_matches_oracle () =
  let b = Tracer.create 1 in
  Wsc_core.Csl_stencil_interp.register ();
  Array.iteri
    (fun i p ->
      let spawned f =
        let d0 = Wsc_multiwafer.Cosim.domains_spawned () in
        let v = f () in
        (v, Wsc_multiwafer.Cosim.domains_spawned () - d0)
      in
      let o, od = spawned (fun () -> Wsc_harden.Oracle.check p) in
      let m, md = spawned (fun () -> Fuzz.mirror b p) in
      let case = Printf.sprintf "case %d" i in
      Alcotest.(check bool) (case ^ " verdict") (Wsc_harden.Oracle.ok o) (m = None);
      Alcotest.(check int) (case ^ " co-simulation domains") od md)
    (Gen.fuzz_cases ~seed:11 ~count:32)

(** A traced pass's trace summary: [run] records spans into the buffer. *)
let traced (run : Tracer.buf -> Harness.pass list) : Tracer.summary * Harness.pass list =
  let b = Tracer.create 1 in
  let epoch = Unix.gettimeofday () in
  Tracer.set_enabled true;
  let passes =
    Fun.protect ~finally:(fun () -> Tracer.set_enabled false) (fun () -> run b)
  in
  (Tracer.summarize (Tracer.to_sink ~epoch [ b ]), passes)

let no_failures passes =
  List.iter
    (fun (p : Harness.pass) ->
      Alcotest.(check (list string)) "no failures" [] p.Harness.failures)
    passes

let args s names =
  List.concat_map
    (fun (span, arg) -> [ (span ^ "/" ^ arg, Tracer.arg_sum s span arg) ])
    names

let fabric_counts =
  ("fabric.run", "elems_sent") :: ("fabric.run", "task_activations")
  :: ("fabric.run", "scans") :: ("fabric.run", "wakeups") :: ("fabric.run", "parks")
  :: List.map (fun (d : B.descr) -> ("fabric.run", "cycles_per_iter." ^ d.B.id)) B.all

let counts = Alcotest.(list (pair string (float 0.0)))

let steady_counts_repeat () =
  let grid = (3, 3) and steps = 3 in
  let fps =
    List.map
      (fun (id, p) -> (id, Expected.fingerprint ~bench:id (P.run_reference p)))
      (Steady.programs ~grid ~steps ())
  in
  let once () =
    let st = Steady.prepare ~grid ~steps (fun id -> List.assoc id fps) in
    let s, passes = traced (fun b -> [ Steady.one_pass b st ]) in
    no_failures passes;
    args s fabric_counts
  in
  let a = once () in
  Alcotest.(check bool) "cycles measured" true (List.for_all (fun (_, v) -> v > 0.0) a);
  Alcotest.check counts "steady counts" a (once ())

let check_counts_repeat () =
  let once () =
    let st = Check.setup ~size:(B.Proxy (2, 2)) ~seed:5 () in
    let s, passes = traced (fun b -> [ Check.one_pass b st ]) in
    no_failures passes;
    args s
      (("pipeline.backend_passes", "ops_out") :: ("csl_printer", "bytes") :: fabric_counts)
  in
  Alcotest.check counts "check counts" (once ()) (once ())

let serve_counts_repeat () =
  let once () =
    let st = Serve.setup ~capacity:64 ~seed:5 () in
    let b = Tracer.create 1 in
    let passes = Serve.phase st [ b ] ~seconds:60.0 ~max_passes:1 () in
    no_failures passes;
    let c = Wsc_serve.Engine.cache_stats st.Serve.engine in
    Wsc_serve.Cache.[ ("hits", c.hits); ("misses", c.misses); ("evictions", c.evictions) ]
  in
  let a = once () in
  Alcotest.(check bool) "evictions happen" true (List.assoc "evictions" a > 0);
  Alcotest.(check (list (pair string int))) "cache counts" a (once ())

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "check fields pure in the seed" `Quick check_inputs_pure;
          Alcotest.test_case "serve stream pure in the seed" `Quick serve_stream_pure;
          Alcotest.test_case "fuzz cases pure in the seed" `Quick fuzz_cases_pure;
          Alcotest.test_case "re-spellings share a key" `Quick respellings_key_alike;
          Alcotest.test_case "distinct programs key apart" `Quick
            distinct_programs_key_apart;
        ] );
      ( "fuzz mirror",
        [ Alcotest.test_case "agrees with Oracle.check" `Quick mirror_matches_oracle ] );
      ( "exact counts",
        [
          Alcotest.test_case "steady" `Quick steady_counts_repeat;
          Alcotest.test_case "check" `Quick check_counts_repeat;
          Alcotest.test_case "serve" `Quick serve_counts_repeat;
        ] );
    ]
