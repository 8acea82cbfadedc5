(** perfbench — the repository's benchmark.

    {v
    main.exe --workload check|steady|serve|fuzz --seed N --seconds S --trace 0|1
    main.exe --steady-expected verify|write
    v}

    A run builds the workload's inputs from the seed, measures for the
    given seconds, checks every output, and prints as its last stdout
    line one JSON object: [correct], [attempted], [failed] and
    [metrics] — the end-to-end metrics with [--trace 0], the per-layer
    ones with [--trace 1].  The line before it records the facts behind
    the numbers (cores, OCaml version, commit, seed, clients, samples,
    tail percentile).  A traced run also writes its Chrome trace to
    [perfbench/out/].  Exit code 1 when any output was wrong, 2 on a
    usage error or a crash.

    [--steady-expected verify] recomputes the [steady] workload's stored
    expected values with the sequential reference and fails if they
    drifted; [write] stores them. *)

module J = Wsc_trace.Json
open Perfbench

let out_dir = "perfbench/out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable expected : string option;
}

let parse_args () : args =
  let a = { workload = None; seed = 1; seconds = 10.0; trace = false; expected = None } in
  let rec go = function
    | "--workload" :: w :: rest -> a.workload <- Some w; go rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> a.seed <- s
        | None -> die "bad --seed %s" n);
        go rest
    | "--seconds" :: n :: rest ->
        (match float_of_string_opt n with
        | Some s when s > 0.0 -> a.seconds <- s
        | _ -> die "bad --seconds %s" n);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a.trace <- t = "1"; go rest
    | "--steady-expected" :: m :: rest -> a.expected <- Some m; go rest
    | [] -> ()
    | x :: _ -> die "unknown argument %s" x
  in
  go (List.tl (Array.to_list Sys.argv));
  a

(** Recompute the steady fingerprints from the reference. *)
let steady_expected mode =
  let fresh = Steady.reference_outputs () in
  let grid = Steady.grid and steps = Steady.steps in
  match mode with
  | "write" ->
      Expected.save ~grid ~steps
        (List.map (fun (id, grids) -> (id, Expected.fingerprint ~bench:id grids)) fresh);
      Printf.printf "wrote %s\n" Expected.path
  | "verify" -> (
      match Expected.load ~grid ~steps with
      | Error msg -> die "%s: %s" Expected.path msg
      | Ok stored ->
          let drift =
            List.filter_map
              (fun (id, grids) ->
                match List.assoc_opt id stored with
                | None -> Some (id ^ ": not stored")
                | Some fps -> Expected.compare ~bench:id fps grids)
              fresh
          in
          if drift = [] then print_endline "steady expected values: no drift"
          else begin
            List.iter prerr_endline drift;
            exit 1
          end)
  | m -> die "unknown --steady-expected mode %s (verify|write)" m

let print_split (s : Tracer.summary) ~passes =
  let split = Tracer.self_split s in
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 split in
  Printf.eprintf "self time per pass (%.2f passes traced):\n" passes;
  List.iter
    (fun (name, x) ->
      Printf.eprintf "  %-28s %10.6f s  %5.1f%%\n" name
        (x /. Float.max passes 1e-9) (100.0 *. x /. Float.max total 1e-12))
    split

let run_workload (type st) (w : st Harness.t) (a : args) ~clients =
  let o = Harness.run w ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~clients in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let passes = o.untraced @ o.traced @ [ o.post ] in
  let attempted = List.fold_left (fun n (p : Harness.pass) -> n + p.attempted) 0 passes in
  let failed = List.fold_left (fun n (p : Harness.pass) -> n + p.failed) 0 passes in
  let failures = List.concat_map (fun (p : Harness.pass) -> p.failures) passes in
  let timed = if a.trace then o.traced else o.untraced in
  let _, _, tail_p, samples = Report.latency timed in
  let trace_file = Printf.sprintf "%s/trace-%s-s%d.json" out_dir w.name a.seed in
  let metrics =
    if not a.trace then Report.end_to_end o ~peak_rss_mb
    else begin
      let sink = Tracer.to_sink ~epoch:o.epoch o.bufs in
      Wsc_trace.Chrome.write_file ~path:trace_file sink;
      let s = Tracer.summarize sink in
      let ms = Report.per_layer o s in
      let passes = List.find (fun (x : Report.metric) -> x.name = "trace.passes") ms in
      print_split s ~passes:passes.value;
      ms
    end
  in
  let meta =
    J.Obj
      [
        ("workload", J.String w.name);
        ("seed", J.Int a.seed);
        ("seconds", J.Float a.seconds);
        ("trace", J.Bool a.trace);
        ("nproc", J.Int (Measure.nproc ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("commit", J.String (Measure.commit ()));
        ("clients", J.Int clients);
        ("passes", J.Int (List.length timed));
        ("ops_per_pass", J.Float o.ops_per_pass);
        ("samples", J.Int samples);
        ("tail_percentile", J.Float tail_p);
        ( "fail_ratio",
          J.Float (float_of_int failed /. float_of_int (max 1 attempted)) );
        ( "failures",
          J.List (List.filteri (fun i _ -> i < 5) failures |> List.map (fun s -> J.String s)) );
        ("trace_file", if a.trace then J.String trace_file else J.Null);
      ]
  in
  let result = Report.result_json ~attempted ~failed metrics in
  Out_channel.with_open_text
    (Printf.sprintf "%s/%s-s%d-t%d.json" out_dir w.name a.seed (Bool.to_int a.trace))
    (fun oc ->
      let walls = J.List (List.map (fun (p : Harness.pass) -> J.Float p.wall) timed) in
      J.to_channel oc
        (J.Obj [ ("meta", meta); ("pass_walls", walls); ("result", result) ]));
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) failures;
  print_endline (J.to_string (J.Obj [ ("meta", meta) ]));
  print_endline (J.to_string result);
  if failed > 0 then exit 1

let () =
  let a = parse_args () in
  match (a.expected, a.workload) with
  | Some mode, _ -> steady_expected mode
  | None, None -> die "give --workload check|steady|serve|fuzz"
  | None, Some name -> (
      (try if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755
       with Sys_error msg -> die "%s" msg);
      try
        match name with
        | "check" -> run_workload Check.workload a ~clients:1
        | "steady" -> run_workload Steady.workload a ~clients:1
        | "serve" -> run_workload Serve.workload a ~clients:Serve.clients
        | "fuzz" -> run_workload Fuzz.workload a ~clients:1
        | w -> die "unknown workload %s (check|steady|serve|fuzz)" w
      with e -> die "%s crashed: %s" name (Printexc.to_string e))
