(** Fabric simulator: executes a compiled csl program on a simulated grid
    of PEs with per-PE cycle accounting, a native implementation of the
    runtime communication library (paper §5.6), and the WSE2 self-send
    switch behaviour.  See {!Host} for the data-loading front door. *)

exception Sim_error of string

(** A [communicate] call's config, decoded once when the program is
    staged: buffers and pointers resolved to slots, callbacks to staged
    functions, and a per-(input, swap, hop) delivery plan. *)
type comm

type pe_stats = {
  mutable compute_cycles : float;
  mutable send_cycles : float;
  mutable wait_cycles : float;
  mutable task_activations : int;
  mutable flops : float;
      (** algorithmic FLOPs, including promoted-coefficient reductions
          performed while draining the input queue *)
  mutable elems_sent : int;
  mutable elems_drained : int;  (** wavelets received over the ramp *)
  mutable mem_bytes : float;  (** SRAM traffic of the DSD builtins *)
}

(** First field in which two per-PE stat records differ, with both
    values (e.g. ["elems_sent: 128 <> 130"]); [None] when equal.  The
    cross-driver bit-identity assertions in the benchmark harness and
    the tests share this, so every mismatch names the culprit field. *)
val stats_diff : pe_stats -> pe_stats -> string option

(** [stats_diff a b = None]. *)
val stats_equal : pe_stats -> pe_stats -> bool

(** Event-driven scheduler: a ready queue of runnable PEs plus per-send
    wake lists, so a PE blocked on a neighbour exchange is woken exactly
    when the matching send registers instead of being re-polled every
    round.  The ready queue is a flat int ring buffer of PE indices
    [y * width + x] — no box per element, nothing allocated on the
    enqueue/pop hot path — and membership is a flat [Bytes.t] bitset
    over the same index, so nothing hashes a coordinate pair per step.
    Counters feed the [sched] microbenchmark. *)
module Sched : sig
  (** A pending send: (apply_id, seq, sender x, sender y). *)
  type key = int * int * int * int

  type stats = {
    mutable scans : int;  (** PE visits by the driver ([step_pe] calls) *)
    mutable probes : int;  (** finished-flag probes by quiescence sweeps *)
    mutable wakeups : int;  (** parked PEs re-enqueued by a landing send *)
    mutable parks : int;  (** times a PE was parked on a wake list *)
    mutable max_queue_depth : int;  (** ready-queue high-water mark *)
    mutable max_live_sends : int;
        (** high-water mark of send records held at once; the parallel
            driver reports its largest strip, so the count is only
            comparable between runs of the same driver *)
  }

  type t

  (** A scheduler for a [width] x [height] grid (the dimensions size the
      membership bitset). *)
  val create : width:int -> height:int -> t

  val stats : t -> stats
end

type pe = {
  px : int;
  py : int;
  globals : float array array;  (** buffers, by global slot *)
  scalars : int array;  (** by scalar slot (see {!scalar_slot}) *)
  ptrs : int array;  (** pointer slot -> the global slot it targets *)
  mutable clock : float;  (** local cycle count *)
  mutable finished : bool;
  mutable task_queue : (float * fn) list;  (** activation time, task *)
  mutable waiting : waiting option;
  seq : int array;  (** communicate count per exchange id *)
  mutable pending : comm list;
      (** communicate calls issued by the running activation *)
  stats : pe_stats;
}

(** A staged [csl.func] or [csl.task] (see {!find_fn}). *)
and fn

and waiting

(** The staged program: every function and task body compiled once
    into closures over slot indices (see {!create}). *)
type code

type t = {
  machine : Machine.t;
  program : Wsc_ir.Ir.op;
  code : code;  (** the staged program, shared by every PE and strip *)
  width : int;
  height : int;
  pes : pe array array;
  sends : (int * int * int * int, send_record) Hashtbl.t;
      (** (apply, seq, x, y) -> snapshot, held until every receiver in
          columns [x_lo..x_hi] has consumed it *)
  x_lo : int;
  x_hi : int;
      (** columns whose receivers read [sends]: the whole grid, or one
          strip of the parallel driver *)
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident Dirichlet boundary columns *)
  z_halo : int;
  zfull : int;
  nz : int;
  sched : Sched.t;
  trace : Wsc_trace.Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Wsc_trace.Trace.null} every emission site is a dead branch
          and results are bit-identical to an untraced run *)
  faults : Wsc_faults.Faults.t;
      (** fault-injection schedule and resilience bookkeeping; with
          {!Wsc_faults.Faults.null} (the default) every injection site
          is a dead branch, exactly like the trace sink *)
  mutable on_send : (Sched.key -> send_record -> unit) option;
      (** observation hook run by the send-registration path right after
          a record is stored: the parallel driver streams boundary sends
          into neighbouring strips' inboxes through it.  [None] (the
          sequential drivers) costs one branch per send. *)
}

and send_record

(** Largest PE grid the simulator instantiates in one process; full
    wafers are measured via proxy-grid extrapolation. *)
val max_simulated_pes : int

(** Instantiate the PE grid for a program module, staging every
    [csl.func]/[csl.task] body once into closures shared by all PEs.
    [trace] (default {!Wsc_trace.Trace.null}) receives per-PE spans
    (compute, send, parked-on-exchange, drain), scheduler wake/park
    instants and per-link transfer flows as the simulation runs.
    [faults] (default {!Wsc_faults.Faults.null}) injects the configured
    fault schedule into task dispatch and link delivery, and — when its
    config enables resilience — drives the detection & recovery
    protocol of the simulated comms layer.
    @raise Sim_error when the grid exceeds the fabric, is too large to
    simulate in-process, or the program's per-PE memory exceeds 48 kB;
    and, naming the op and its enclosing function or task, on an
    unsupported op, an unknown global, scalar, pointer, callee or task,
    a malformed [communicate] config (including a send pointer that is
    not a [ptr_state<N>] state pointer), or a missing [run] entry. *)
val create :
  ?trace:Wsc_trace.Trace.sink ->
  ?faults:Wsc_faults.Faults.t ->
  Machine.t ->
  Wsc_ir.Ir.op ->
  t

val in_grid : t -> int -> int -> bool

(** The buffer a pointer global of a PE currently targets.
    @raise Sim_error for an unknown pointer. *)
val deref : t -> pe -> string -> float array

(** The slot of a scalar global in every PE's [scalars].
    @raise Sim_error for an unknown scalar. *)
val scalar_slot : t -> string -> int

(** A staged function or task by name, e.g. to queue it on a PE.
    @raise Sim_error for an unknown name. *)
val find_fn : t -> string -> fn

(** Run one queued task of a PE — the entry with the earliest activation
    timestamp, as the hardware scheduler would dispatch it.  Returns
    false when the queue is empty.  Exposed for scheduler tests. *)
val run_tasks : t -> pe -> bool

(** How {!run_to_completion} drives the grid: [Polling] is the seed
    driver (rescan every PE each round); [Event_driven] (the default) is
    the ready-queue/wake-list scheduler; [Parallel n] cuts the grid into
    [n] contiguous vertical strips, each driven by the event scheduler
    on a worker [Domain.t] from a pool spawned once per run, with
    boundary sends streamed into neighbouring strips' inboxes mid-round
    and a reusable barrier whose lookahead is the program's maximum
    exchange hop distance.  Elapsed cycles, per-PE statistics, drained
    fields and fault reports are bit-identical across all three — a
    PE's behaviour depends only on its own state and on immutable send
    records, whose arrival times are computed from record contents
    rather than from when the driver made them visible.  [Parallel n]
    with [n <= 1] (or a one-column grid) falls back to [Event_driven]. *)
type driver = Polling | Event_driven | Parallel of int

(** ["polling"], ["event"] or ["parallel"], for reports and JSON
    summaries (the domain count is reported separately). *)
val driver_name : driver -> string

(** Domain count a driver asks for (0 for the sequential drivers). *)
val driver_domains : driver -> int

(** Worker domains the driver actually uses on a [width]-column grid —
    the clamp [Parallel] applies internally ([max 1 (min n width)]; 0
    for the sequential drivers).  Report this, not the requested count,
    in summaries and bench artifacts. *)
val effective_domains : driver -> width:int -> int

(** Total worker domains spawned by parallel runs since program start.
    Test hook: the delta across one run must equal the effective domain
    count — the pool is spawned once, never per round. *)
val domains_spawned : unit -> int

(** Start the program on every PE and drive the dependency-directed
    scheduler until every PE has unblocked the command stream.
    [max_rounds] defaults to the machine's [sim_max_rounds].
    @raise Sim_error on divergence, or on deadlock with a report of
    which PEs are blocked, on which (apply_id, seq) exchange, and which
    neighbour never sent. *)
val run_to_completion : ?max_rounds:int -> ?driver:driver -> t -> unit

(** Scheduler counters of the last run (scans, wakeups, parks, queue
    depth); the polling driver only advances [scans]. *)
val sched_stats : t -> Sched.stats

(** Fault and recovery counters of the last run (all zero with the null
    injector). *)
val fault_stats : t -> Wsc_faults.Faults.stats

(** Per-PE validity mask, indexed [x][y]: false where the PE halted or
    consumed substituted / unrecoverable data (directly or transitively
    through a tainted neighbour's send).  All-true with the null
    injector. *)
val validity : t -> bool array array

(** Wall-clock of the slowest PE. *)
val elapsed_cycles : t -> float

val elapsed_seconds : t -> float

(** Per-PE cycle accounts in the shape the trace aggregation consumes. *)
val pe_summaries : t -> Wsc_trace.Aggregate.pe_summary list

(** Aggregate statistics over all PEs. *)
val total_stats : t -> pe_stats
