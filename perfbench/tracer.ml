(** Spans recorded by the benchmark around its calls into the compiler's
    layers.  Spans stay in memory (one buffer per client domain, so
    recording takes no lock) and are written out once, at the end, as a
    Chrome trace through [Wsc_trace].  The per-layer numbers are then
    read back from that trace's events: a span's self time is its
    length minus the time its child spans cover, and likewise for the
    bytes the calling domain allocated inside it. *)

module T = Wsc_trace.Trace

(** Chrome process id of the benchmark's own tracks. *)
let pid = 10

type record =
  | Span of {
      name : string;
      seq0 : int;  (** start order within the buffer: nesting key *)
      seq1 : int;
      t0 : float;
      t1 : float;
      alloc : float;  (** bytes allocated by this domain, children included *)
      args : (string * T.arg) list;
    }
  | Count of { name : string; seq : int; t : float; value : float }

type buf = { tid : int; mutable seq : int; mutable records : record list }

let create tid = { tid; seq = 0; records = [] }

(* Flipped only between phases, while no client domain is running. *)
let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b
let now = Unix.gettimeofday

let tick b =
  let s = b.seq in
  b.seq <- s + 1;
  s

(** [span_dyn b f name_of args_of] runs [f] inside a span whose name
    and arguments (the counts the layer reports) are read off its
    result.  A no-op wrapper while tracing is off.  A span whose call
    raises is dropped and the exception passes through. *)
let span_dyn b f name_of args_of =
  if not (enabled ()) then f ()
  else begin
    let seq0 = tick b in
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let alloc = Gc.allocated_bytes () -. a0 in
    let name = name_of r and args = args_of r in
    let seq1 = tick b in
    b.records <- Span { name; seq0; seq1; t0; t1; alloc; args } :: b.records;
    r
  end

let span_args b name f args_of = span_dyn b f (fun _ -> name) args_of
let span b name f = span_dyn b f (fun _ -> name) (fun _ -> [])

(** A span whose bounds a layer reported itself (the compile engine's
    phase stamps), recorded inside the enclosing open span.  Its
    allocation is unknown and counted with the parent. *)
let stamped ?(args = []) b name ~t0 ~t1 =
  if enabled () then begin
    let seq0 = tick b in
    let seq1 = tick b in
    b.records <-
      Span { name; seq0; seq1; t0; t1 = Float.max t0 t1; alloc = 0.0; args }
      :: b.records
  end

(** A counter sample; recorded whether or not spans are on, so probes
    made outside the traced phase still land in the trace. *)
let count b name value =
  b.records <- Count { name; seq = tick b; t = now (); value } :: b.records

(** {1 Export} *)

(** The buffers as one trace sink: per buffer a track [tid], spans as
    properly nested B/E pairs in start order, counters as C events.
    Timestamps are wall-clock microseconds since [epoch]; each E event
    carries the span's inclusive allocation and its arguments. *)
let to_sink ~epoch (bufs : buf list) : T.sink =
  let sink = T.collector () in
  T.name_process sink ~pid "perfbench";
  let us t = (t -. epoch) *. 1e6 in
  List.iter
    (fun b ->
      let tid = b.tid in
      T.name_track sink ~pid ~tid (Printf.sprintf "client %d" tid);
      let key = function Span s -> s.seq0 | Count c -> c.seq in
      let recs =
        List.sort (fun a c -> compare (key a) (key c)) b.records
      in
      (* open spans, innermost first: (seq1, name, t1, alloc, args) *)
      let stack = ref [] in
      let close_until seq =
        let rec go () =
          match !stack with
          | (s1, name, t1, alloc, args) :: rest when s1 < seq ->
              T.span_end sink ~pid ~tid ~cat:"layer" ~name
                ~args:(("alloc_bytes", T.Afloat alloc) :: args)
                (us t1);
              stack := rest;
              go ()
          | _ -> ()
        in
        go ()
      in
      List.iter
        (fun r ->
          close_until (key r);
          match r with
          | Span s ->
              T.span_begin sink ~pid ~tid ~cat:"layer" ~name:s.name (us s.t0);
              stack := (s.seq1, s.name, s.t1, s.alloc, s.args) :: !stack
          | Count c ->
              T.counter sink ~pid ~tid ~name:c.name
                ~values:[ ("value", c.value) ]
                (us c.t))
        recs;
      close_until max_int)
    bufs;
  sink

(** {1 Reading the trace back} *)

type layer = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_alloc : float;  (** bytes *)
  sums : (string, float) Hashtbl.t;  (** numeric span arguments, summed *)
}

type summary = {
  layers : (string, layer) Hashtbl.t;
  counters : (string, float list) Hashtbl.t;  (** samples, in order *)
}

let number = function
  | T.Aint i -> Some (float_of_int i)
  | T.Afloat f -> Some f
  | T.Astr _ -> None

(** Self time and self allocation per span name, argument sums and
    counter samples, from the sink's events.  Spans nest per
    [(pid, tid)] track. *)
let summarize (sink : T.sink) : summary =
  let layers = Hashtbl.create 32 and counters = Hashtbl.create 8 in
  let layer name =
    match Hashtbl.find_opt layers name with
    | Some l -> l
    | None ->
        let l =
          { calls = 0; self_s = 0.0; self_alloc = 0.0; sums = Hashtbl.create 8 }
        in
        Hashtbl.replace layers name l;
        l
  in
  (* per track: open spans as (name, start µs, child µs, child bytes) *)
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (ev : T.event) ->
      let track = (ev.ev_pid, ev.ev_tid) in
      let stack = Option.value (Hashtbl.find_opt stacks track) ~default:[] in
      match ev.ev_phase with
      | T.Span_begin ->
          Hashtbl.replace stacks track ((ev.ev_name, ev.ev_ts, ref 0.0, ref 0.0) :: stack)
      | T.Span_end -> (
          match stack with
          | (name, ts0, child_us, child_alloc) :: rest ->
              let dur = ev.ev_ts -. ts0 in
              let alloc =
                match List.assoc_opt "alloc_bytes" ev.ev_args with
                | Some a -> Option.value (number a) ~default:0.0
                | None -> 0.0
              in
              let l = layer name in
              l.calls <- l.calls + 1;
              l.self_s <- l.self_s +. ((dur -. !child_us) *. 1e-6);
              l.self_alloc <- l.self_alloc +. (alloc -. !child_alloc);
              List.iter
                (fun (k, v) ->
                  if k <> "alloc_bytes" then
                    match number v with
                    | Some x ->
                        Hashtbl.replace l.sums k
                          (x +. Option.value (Hashtbl.find_opt l.sums k) ~default:0.0)
                    | None -> ())
                ev.ev_args;
              (match rest with
              | (_, _, pc, pa) :: _ ->
                  pc := !pc +. dur;
                  pa := !pa +. alloc
              | [] -> ());
              Hashtbl.replace stacks track rest
          | [] -> ())
      | T.Counter ->
          let v =
            match List.assoc_opt "value" ev.ev_args with
            | Some a -> Option.value (number a) ~default:0.0
            | None -> 0.0
          in
          let prev = Option.value (Hashtbl.find_opt counters ev.ev_name) ~default:[] in
          Hashtbl.replace counters ev.ev_name (prev @ [ v ])
      | _ -> ())
    (T.events sink);
  { layers; counters }

let self_s (s : summary) name =
  match Hashtbl.find_opt s.layers name with Some l -> l.self_s | None -> 0.0

let calls (s : summary) name =
  match Hashtbl.find_opt s.layers name with Some l -> l.calls | None -> 0

(** Sum of argument [arg] over the spans named [name]. *)
let arg_sum (s : summary) name arg =
  match Hashtbl.find_opt s.layers name with
  | Some l -> Option.value (Hashtbl.find_opt l.sums arg) ~default:0.0
  | None -> 0.0

let counter (s : summary) name =
  Option.value (Hashtbl.find_opt s.counters name) ~default:[]

(** Self bytes of every span named [prefix] or [prefix.*]. *)
let self_alloc_of_layer (s : summary) prefix =
  Hashtbl.fold
    (fun name l acc ->
      if name = prefix || String.starts_with ~prefix:(prefix ^ ".") name then
        acc +. l.self_alloc
      else acc)
    s.layers 0.0

(** Names with their self seconds, largest first. *)
let self_split (s : summary) : (string * float) list =
  Hashtbl.fold (fun name l acc -> (name, l.self_s) :: acc) s.layers []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
