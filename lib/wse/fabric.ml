(** Fabric simulator: executes a compiled csl program on a simulated grid
    of PEs.

    Each PE holds its own buffers, scalars and pointer globals, executes
    tasks one at a time (single-threaded, as on the hardware), and counts
    cycles according to the {!Machine} model.  The runtime communication
    library (paper §5.6) is implemented natively here: [communicate]
    registers an asynchronous neighbour exchange — the sender pushes its
    column slices in chunks in all needed directions, receivers reduce or
    stage incoming chunks (applying promoted coefficients at delivery,
    §5.7) and activate the chunk callback per chunk and the done callback
    once all chunks from all neighbours have arrived, continuing the
    control-flow task graph.

    Scheduling is dependency-driven: a PE advances until it waits on
    senders that have not yet reached their matching [communicate]; the
    driver loop repeatedly picks PEs that can progress.  Local clocks
    advance by op costs; message arrival times combine the sender's chunk
    injection completion with per-hop router latency.  On the WSE2 every
    injection is doubled by the self-send switch workaround (§6). *)

open Wsc_ir.Ir
module Csl = Wsc_core.Csl
module Bufview = Wsc_core.Bufview
module Dmp = Wsc_dialects.Dmp
module Trace = Wsc_trace.Trace
module Faults = Wsc_faults.Faults

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(** {1 Communicate plans}

    A [communicate] call's config attribute, decoded once when the
    program is staged (see {!stage}): every buffer and pointer it names
    is a per-PE slot, the callbacks are indices into the staged
    functions, and each (input, swap, hop) carries its receive buffer,
    sender and promoted coefficient, so delivering a chunk touches no
    string, list or hash table. *)

type swap_plan = {
  sw_dir : Dmp.direction;
  sw_rcv : int;  (** receive buffer (global slot) *)
  sw_src : int array;
      (** per hop [d - 1]: the sender's index in the exchange's
          [src_offsets] *)
  sw_coef : float array;
      (** per hop [d - 1]: the promoted coefficient applied at delivery
          (0 when the config lists none for this input and offset) *)
}

type input_plan = {
  in_ptr : int;  (** pointer slot of the sent buffer *)
  in_halo : int;
      (** state slot whose boundary columns stand in for off-grid
          senders: the Dirichlet halo is that grid's initial value *)
  in_swaps : swap_plan array;
}

type comm = {
  apply_id : int;
  seq_slot : int;  (** index of [apply_id] in every PE's [seq] counters *)
  inputs : input_plan array;
  z_base : int;
  c_nz : int;
  num_chunks : int;
  chunk_size : int;
  chunk_cb : int;  (** index of the chunk callback among the staged functions *)
  done_cb : int;
  src_offsets : (int * int) array;
      (** distinct (dx, dy) from the receiver to each sender it reads, in
          first-encounter order over inputs, swaps and depth *)
  promoted : bool;  (** coefficients are applied while draining (§5.7) *)
  staging : int array;
      (** the distinct promoted staging buffers (global slots), cleared
          once per chunk; empty without promotion *)
  incoming : int;  (** wavelets received per chunk *)
  drain : float;  (** queue-drain cycles per chunk *)
  chunk_cost : float;  (** injection cycles of one chunk in every direction *)
  send_elems : int;  (** elements injected per exchange *)
}

let dir_vector = function
  | Dmp.East -> (1, 0)
  | Dmp.West -> (-1, 0)
  | Dmp.North -> (0, 1)
  | Dmp.South -> (0, -1)

(** {1 PE state} *)

type pe_stats = {
  mutable compute_cycles : float;
  mutable send_cycles : float;
  mutable wait_cycles : float;
  mutable task_activations : int;
  mutable flops : float;
  mutable elems_sent : int;
  mutable elems_drained : int;  (** wavelets received over the ramp *)
  mutable mem_bytes : float;  (** local SRAM traffic of the DSD builtins *)
}

(** First field in which two per-PE stat records differ, with both
    values; [None] when equal.  The cross-driver bit-identity
    assertions in the benchmark harness and the tests share this, so
    every mismatch names the culprit field instead of printing two
    opaque tuples. *)
let stats_diff (a : pe_stats) (b : pe_stats) : string option =
  let fl name av bv =
    if (av : float) <> bv then Some (Printf.sprintf "%s: %.17g <> %.17g" name av bv)
    else None
  in
  let it name av bv =
    if (av : int) <> bv then Some (Printf.sprintf "%s: %d <> %d" name av bv)
    else None
  in
  List.fold_left
    (fun acc d -> match acc with Some _ -> acc | None -> d ())
    None
    [
      (fun () -> fl "compute_cycles" a.compute_cycles b.compute_cycles);
      (fun () -> fl "send_cycles" a.send_cycles b.send_cycles);
      (fun () -> fl "wait_cycles" a.wait_cycles b.wait_cycles);
      (fun () -> it "task_activations" a.task_activations b.task_activations);
      (fun () -> fl "flops" a.flops b.flops);
      (fun () -> it "elems_sent" a.elems_sent b.elems_sent);
      (fun () -> it "elems_drained" a.elems_drained b.elems_drained);
      (fun () -> fl "mem_bytes" a.mem_bytes b.mem_bytes);
    ]

let stats_equal (a : pe_stats) (b : pe_stats) : bool = stats_diff a b = None

type send_record = {
  sr_chunk_ready : float array;  (** completion time of each chunk injection *)
  sr_data : float array array;  (** snapshot of the sent z-range, per input *)
  sr_offsets : (int * int) array;  (** the exchange's [src_offsets] *)
  mutable sr_unread : int;
      (** receivers among this send table's columns that have not
          consumed the record yet; the record leaves the table at zero.
          Each table holds its own copy of the record (sharing the data),
          so this count is only touched by the table's owner. *)
  sr_pending : int Atomic.t;
      (** receivers grid-wide that have not consumed it yet, shared by
          every table's copy; the {!Faults} taint entry goes at zero *)
}

(** A value bound in a staged body's SSA environment. *)
type cell = Cview of Bufview.t | Cint of int | Cfloat of float | Cunset

type waiting = {
  w_cfg : comm;
  w_seq : int;
  w_registered_at : float;
}

type pe = {
  px : int;
  py : int;
  globals : float array array;  (** buffers, by global slot *)
  scalars : int array;  (** by scalar slot *)
  ptrs : int array;  (** pointer slot -> the global slot it targets *)
  mutable clock : float;
  mutable finished : bool;
  mutable task_queue : (float * fn) list;  (** activation time, task *)
  mutable waiting : waiting option;
  seq : int array;  (** communicate count per exchange ([comm.seq_slot]) *)
  mutable pending : comm list;
      (** communicate calls issued by the running activation, newest
          first; started by whoever dispatched it *)
  stats : pe_stats;
}

(** A staged [csl.func] or [csl.task]. *)
and fn = {
  fn_name : string;
  fn_args : int;  (** block arguments, bound to the first slots *)
  fn_slots : int;  (** SSA values of the body, nested regions included *)
  fn_body : instr array;
}

(** One staged op, run on a PE against its activation's environment. *)
and instr = pe -> cell array -> unit

(** {1 Scheduler core}

    The event-driven driver keeps a FIFO ready queue of PE coordinates
    plus per-send wake lists: a PE blocked on a neighbour exchange is
    parked on the key of the first sender that has not yet registered,
    and is re-enqueued exactly when that [register_send] lands, instead
    of being re-polled every round over the whole grid.  Counters let
    the benchmark harness compare the two drivers. *)

module Sched = struct
  (** A pending send: (apply_id, seq, sender x, sender y) — the same key
      as the simulator's send table. *)
  type key = int * int * int * int

  type stats = {
    mutable scans : int;  (** PE visits by the driver ([step_pe] calls) *)
    mutable probes : int;  (** finished-flag probes by quiescence sweeps *)
    mutable wakeups : int;  (** parked PEs re-enqueued by a landing send *)
    mutable parks : int;  (** times a PE was parked on a wake list *)
    mutable max_queue_depth : int;  (** high-water mark of the ready queue *)
    mutable max_live_sends : int;
        (** high-water mark of records held in the send table *)
  }

  type t = {
    stats : stats;
    ring : int array;
        (** ready queue as a flat ring of PE indices [y * width + x]:
            capacity [width * height] (the membership bitset caps
            occupancy at one entry per PE), no box per element and no
            allocation on the enqueue/pop hot path *)
    mutable head : int;  (** next pop position in [ring] *)
    mutable count : int;  (** live entries in [ring] *)
    width : int;  (** grid width, for index encoding *)
    enqueued : Bytes.t;
        (** membership bitset of the ready ring, bit [y * width + x]:
            one flat byte per 8 PEs instead of hashing a coordinate pair
            on every enqueue and pop *)
    waiters : (key, int list) Hashtbl.t;
        (** per-send wake lists of parked PE indices *)
    mutable quota : int;
        (** scan allowance pre-acquired from the run's shared divergence
            budget, so the hot loop touches the shared atomic only once
            per {!budget_batch} scans *)
  }

  let create ~(width : int) ~(height : int) =
    {
      stats =
        {
          scans = 0;
          probes = 0;
          wakeups = 0;
          parks = 0;
          max_queue_depth = 0;
          max_live_sends = 0;
        };
      ring = Array.make (max 1 (width * height)) 0;
      head = 0;
      count = 0;
      width;
      enqueued = Bytes.make (((width * height) + 7) / 8) '\000';
      waiters = Hashtbl.create 64;
      quota = 0;
    }

  let stats (s : t) = s.stats

  let mem_idx (s : t) (i : int) : bool =
    Char.code (Bytes.get s.enqueued (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set_mem_idx (s : t) (i : int) : unit =
    Bytes.set s.enqueued (i lsr 3)
      (Char.chr (Char.code (Bytes.get s.enqueued (i lsr 3)) lor (1 lsl (i land 7))))

  let clear_mem_idx (s : t) (i : int) : unit =
    Bytes.set s.enqueued (i lsr 3)
      (Char.chr
         (Char.code (Bytes.get s.enqueued (i lsr 3))
         land (lnot (1 lsl (i land 7)) land 0xff)))

  let enqueue_idx (s : t) (i : int) : unit =
    if not (mem_idx s i) then begin
      set_mem_idx s i;
      let cap = Array.length s.ring in
      let p = s.head + s.count in
      s.ring.(if p >= cap then p - cap else p) <- i;
      s.count <- s.count + 1;
      if s.count > s.stats.max_queue_depth then s.stats.max_queue_depth <- s.count
    end

  let enqueue (s : t) (x : int) (y : int) : unit = enqueue_idx s ((y * s.width) + x)

  (** Next ready PE index, or -1 when the ring is empty. *)
  let pop (s : t) : int =
    if s.count = 0 then -1
    else begin
      let i = s.ring.(s.head) in
      let h = s.head + 1 in
      s.head <- (if h >= Array.length s.ring then 0 else h);
      s.count <- s.count - 1;
      clear_mem_idx s i;
      i
    end

  let is_empty (s : t) : bool = s.count = 0

  let park (s : t) (k : key) (idx : int) : unit =
    s.stats.parks <- s.stats.parks + 1;
    let cur = Option.value (Hashtbl.find_opt s.waiters k) ~default:[] in
    Hashtbl.replace s.waiters k (idx :: cur)

  (** A send landed: wake every PE parked on its key; returns the woken
      PE indices (the stored wake list itself — no fresh allocation — so
      the caller can trace the wakeups). *)
  let notify (s : t) (k : key) : int list =
    match Hashtbl.find_opt s.waiters k with
    | None -> []
    | Some idxs ->
        Hashtbl.remove s.waiters k;
        List.iter
          (fun i ->
            s.stats.wakeups <- s.stats.wakeups + 1;
            enqueue_idx s i)
          idxs;
        idxs
end

(** {1 Staged program}

    {!create} stages the program module once.  Every [csl.func] and
    [csl.task] body becomes an array of closures: opnames, attributes
    and [communicate] configs are decoded at staging time, SSA values
    are slots of a per-activation [cell array], and globals, scalars and
    pointers are slots of per-PE arrays.  An unsupported op, an unknown
    name or a malformed config is a {!Sim_error} from {!create}, naming
    the op and its enclosing function or task.  The staged code is
    immutable and shared by every PE and every domain of the parallel
    driver; each closure charges the PE exactly the cycles and
    statistics the op costs. *)

type code = {
  fns : fn array;  (** every function and task, by index *)
  fn_index : (string, int) Hashtbl.t;
  run : int;  (** the host's entry point *)
  global_index : (string, int) Hashtbl.t;
  global_sizes : int array;
  scalar_index : (string, int) Hashtbl.t;
  scalar_init : int array;
  ptr_index : (string, int) Hashtbl.t;
  ptr_init : int array;  (** the global slot each pointer starts at *)
  n_seq : int;  (** distinct exchange ids *)
  reach : int;  (** farthest hop any exchange reaches (at least 1) *)
}

(** Run [f], turning any decode failure into a {!Sim_error} that says
    [where]. *)
let in_context (where : string) (f : unit -> 'a) : 'a =
  try f () with
  | Sim_error msg | Invalid_argument msg | Failure msg -> fail "%s: %s" where msg
  | Not_found -> fail "%s: missing entry" where

let find_slot (kind : string) (tbl : (string, int) Hashtbl.t) (name : string) : int =
  match Hashtbl.find_opt tbl name with Some s -> s | None -> fail "no %s %s" kind name

(** The slot of [k] in [tbl], appended if new. *)
let declare (tbl : ('k, int) Hashtbl.t) (k : 'k) : int =
  match Hashtbl.find_opt tbl k with
  | Some s -> s
  | None ->
      let s = Hashtbl.length tbl in
      Hashtbl.add tbl k s;
      s

(** The keys of a {!declare} table, by slot. *)
let by_slot (tbl : ('k, int) Hashtbl.t) (default : 'k) : 'k array =
  let a = Array.make (Hashtbl.length tbl) default in
  Hashtbl.iter (fun k s -> a.(s) <- k) tbl;
  a

let view_of (env : cell array) (s : int) : Bufview.t =
  match env.(s) with Cview b -> b | _ -> fail "exec: expected DSD/buffer"

let int_of (env : cell array) (s : int) : int =
  match env.(s) with Cint i -> i | _ -> fail "exec: expected int"

let float_of (env : cell array) (s : int) : float =
  match env.(s) with
  | Cfloat f -> f
  | Cint i -> float_of_int i
  | _ -> fail "exec: expected float"

let run_body (body : instr array) (pe : pe) (env : cell array) : unit =
  for i = 0 to Array.length body - 1 do
    body.(i) pe env
  done

(** Run [f] on [pe] in a fresh environment; [arg] binds its first block
    argument, if it has one. *)
let exec (f : fn) (pe : pe) (arg : cell) : unit =
  let env = Array.make f.fn_slots Cunset in
  if f.fn_args > 0 then env.(0) <- arg;
  run_body f.fn_body pe env

(** Communicate calls [exec] issued, in program order, leaving none. *)
let take_pending (pe : pe) : comm list =
  match pe.pending with
  | [] -> []
  | l ->
      pe.pending <- [];
      List.rev l

(** The state slot [N] of a [ptr_state<N>] send pointer. *)
let state_slot (p : string) : int =
  let n = String.length p in
  match
    if n > 9 && String.sub p 0 9 = "ptr_state" then
      int_of_string_opt (String.sub p 9 (n - 9))
    else None
  with
  | Some s when s >= 0 -> s
  | _ -> fail "send_ptr %s is not a state pointer (ptr_state<N>)" p

(** Decode a [communicate] config attribute into its plan. *)
let decode_comm (m : Machine.t) ~(ptr : string -> int) ~(global : string -> int)
    ~(callback : args:int -> string -> int) ~(seq_slot : int -> int) (a : attr) :
    comm =
  let dict = match a with Dict_attr d -> d | _ -> fail "config is not a dictionary" in
  let field d k =
    match List.assoc_opt k d with Some v -> v | None -> fail "config has no %s" k
  in
  let geti k =
    match field dict k with Int_attr i -> i | _ -> fail "config %s is not an int" k
  in
  let gets d k =
    match field d k with String_attr s -> s | _ -> fail "config %s is not a string" k
  in
  let inputs =
    match field dict "inputs" with
    | Array_attr l ->
        List.map
          (function
            | Dict_attr d ->
                let send_ptr = gets d "send_ptr" in
                let swaps = Dmp.swaps_of_attr (field d "swaps") in
                let rcv =
                  match field d "rcv_bufs" with
                  | Array_attr bl when List.length bl = List.length swaps ->
                      List.map
                        (function
                          | String_attr s -> global s
                          | _ -> fail "config rcv_bufs entry is not a string")
                        bl
                  | Array_attr bl ->
                      fail "config rcv_bufs has %d entries for %d swaps"
                        (List.length bl) (List.length swaps)
                  | _ -> fail "config rcv_bufs is not an array"
                in
                (send_ptr, swaps, rcv)
            | _ -> fail "config input is not a dictionary")
          l
    | _ -> fail "config inputs is not an array"
  in
  let coeffs =
    match List.assoc_opt "coeffs" dict with
    | None -> []
    | Some (Array_attr l) ->
        List.map
          (function
            | Dict_attr d ->
                let gi k =
                  match List.assoc_opt k d with Some (Int_attr i) -> i | _ -> 0
                in
                let gf k =
                  match List.assoc_opt k d with
                  | Some (Float_attr f) -> f
                  | Some (Int_attr i) -> float_of_int i
                  | _ -> 0.0
                in
                (gi "i", gi "dx", gi "dy", gf "c")
            | _ -> fail "config coeff is not a dictionary")
          l
    | Some _ -> fail "config coeffs is not an array"
  in
  let cs = geti "chunk_size" and num_chunks = geti "num_chunks" in
  (* senders, by slot in first-encounter order over inputs, swaps and
     depth *)
  let senders = Hashtbl.create 8 in
  let plans =
    List.mapi
      (fun i (send_ptr, swaps, rcv) ->
        let swap (sw : Dmp.swap_desc) g =
          let vx, vy = dir_vector sw.dir in
          let coef d =
            match
              List.find_opt
                (fun (ci, cdx, cdy, _) -> ci = i && cdx = vx * d && cdy = vy * d)
                coeffs
            with
            | Some (_, _, _, c) -> c
            | None -> 0.0
          in
          {
            sw_dir = sw.dir;
            sw_rcv = g;
            sw_src =
              Array.init sw.depth (fun j -> declare senders (vx * (j + 1), vy * (j + 1)));
            sw_coef = Array.init sw.depth (fun j -> coef (j + 1));
          }
        in
        {
          in_ptr = ptr send_ptr;
          in_halo = state_slot send_ptr;
          in_swaps = Array.of_list (List.map2 swap swaps rcv);
        })
      inputs
  in
  let promoted = coeffs <> [] in
  let sum f = List.fold_left (fun acc (_, swaps, _) -> acc + f swaps) 0 inputs in
  let total_dirs = sum List.length in
  let incoming =
    sum (List.fold_left (fun a (sw : Dmp.swap_desc) -> a + (sw.depth * cs)) 0)
  in
  (* on the WSE2 the self-send workaround makes the PE drain its own
     looped-back wavelets as well *)
  let self_loopback = if m.self_send then total_dirs * cs else 0 in
  let self_mul = if m.self_send then 2.0 else 1.0 in
  let apply_id = geti "apply_id" in
  {
    apply_id;
    seq_slot = seq_slot apply_id;
    inputs = Array.of_list plans;
    z_base = geti "z_base";
    c_nz = geti "nz";
    num_chunks;
    chunk_size = cs;
    chunk_cb = callback ~args:1 (gets dict "chunk_cb");
    done_cb = callback ~args:0 (gets dict "done_cb");
    src_offsets = by_slot senders (0, 0);
    promoted;
    staging =
      (if promoted then
         Array.of_list
           (List.sort_uniq compare (List.concat_map (fun (_, _, r) -> r) inputs))
       else [||]);
    incoming;
    drain = float_of_int (incoming + self_loopback) *. m.drain_cycles_per_elem;
    chunk_cost = float_of_int (total_dirs * cs) *. m.send_cycles_per_elem *. self_mul;
    send_elems = total_dirs * num_chunks * cs;
  }

(** Charge a DSD builtin over [len] elements moving [bytes_per_elem]
    bytes of local SRAM each. *)
let builtin_cost (m : Machine.t) (pe : pe) (bytes_per_elem : float) (len : int) :
    unit =
  let overhead = float_of_int m.dsd_overhead_cycles in
  let per_elem = float_of_int len /. m.dsd_elems_per_cycle in
  pe.clock <- pe.clock +. (overhead +. per_elem);
  pe.stats.compute_cycles <- pe.stats.compute_cycles +. overhead +. per_elem;
  pe.stats.mem_bytes <- pe.stats.mem_bytes +. (bytes_per_elem *. float_of_int len)

(** Stage the program module for machine [m]. *)
let stage (m : Machine.t) (program : op) : code =
  let body = Csl.module_body program in
  let global_index = Hashtbl.create 16
  and scalar_index = Hashtbl.create 4
  and ptr_index = Hashtbl.create 8 in
  let sizes = ref [] and inits = ref [] and targets = ref [] in
  let decl tbl acc o v = acc := (declare tbl (string_attr_exn o "sym_name"), v) :: !acc in
  List.iter
    (fun o ->
      in_context o.opname (fun () ->
          match o.opname with
          | "csl.global_buffer" ->
              decl global_index sizes o
                (match attr_exn o "type" with
                | Type_attr t -> num_elements t
                | _ -> fail "bad buffer type")
          | "csl.global_scalar" ->
              decl scalar_index inits o
                (match attr o "init" with Some (Int_attr i) -> i | _ -> 0)
          | "csl.ptr_global" -> decl ptr_index targets o (string_attr_exn o "target")
          | _ -> ()))
    body;
  (* later declarations of a name win *)
  let table tbl entries =
    let a = Array.make (Hashtbl.length tbl) 0 in
    List.iter (fun (s, v) -> a.(s) <- v) (List.rev entries);
    a
  in
  let global = find_slot "global buffer" global_index in
  let ptr = find_slot "pointer" ptr_index in
  let ptr_targets =
    List.map
      (fun (s, target) -> (s, in_context "csl.ptr_global" (fun () -> global target)))
      !targets
  in
  (* a function shadows a task of the same name *)
  let defs = Hashtbl.create 16 and names = ref [] in
  let define o =
    let name = in_context o.opname (fun () -> string_attr_exn o "sym_name") in
    if not (Hashtbl.mem defs name) then names := name :: !names;
    Hashtbl.replace defs name o
  in
  List.iter (fun o -> if o.opname = "csl.task" then define o) body;
  List.iter (fun o -> if o.opname = "csl.func" then define o) body;
  let names = Array.of_list (List.rev !names) in
  let fn_index = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace fn_index n i) names;
  let where_fn name =
    let o = Hashtbl.find defs name in
    Printf.sprintf "%s %s" (if o.opname = "csl.task" then "task" else "function") name
  in
  let entry name =
    in_context (where_fn name) (fun () ->
        entry_block (List.hd (Hashtbl.find defs name).regions))
  in
  let nargs = Array.map (fun n -> List.length (entry n).bargs) names in
  let callback ~args name =
    let i = find_slot "function or task" fn_index name in
    if nargs.(i) > args then
      fail "%s takes %d arguments where %d are passed" name nargs.(i) args;
    i
  in
  let seq_slots = Hashtbl.create 4 and reach = ref 1 in
  let fns =
    Array.make (Array.length names)
      { fn_name = ""; fn_args = 0; fn_slots = 0; fn_body = [||] }
  in
  let call_cycles = float_of_int m.call_cycles in
  let activate_cycles = float_of_int m.task_activate_cycles in
  let stage_fn name : fn =
    let blk = entry name in
    let slots = Hashtbl.create 32 and next = ref 0 in
    let bind (v : value) =
      let s = !next in
      incr next;
      Hashtbl.replace slots v.vid s;
      s
    in
    let use (v : value) =
      match Hashtbl.find_opt slots v.vid with
      | Some s -> s
      | None -> fail "value %%%d is used before it is defined" v.vid
    in
    List.iter (fun a -> ignore (bind a)) blk.bargs;
    let rec stage_block (b : block) : instr array =
      Array.of_list (List.filter_map stage_op b.bops)
    and stage_op (o : op) : instr option =
      let where = Printf.sprintf "%s in %s" o.opname (where_fn name) in
      if o.opname = "scf.if" then begin
        let c, branches =
          in_context where (fun () ->
              (use (operand o 0), List.map entry_block o.regions))
        in
        let then_, else_ =
          match List.map stage_block branches with
          | [ t ] -> (t, [||])
          | [ t; e ] -> (t, e)
          | _ -> fail "%s: expected one or two regions" where
        in
        Some
          (fun pe env ->
            pe.clock <- pe.clock +. 2.0;
            run_body (if int_of env c <> 0 then then_ else else_) pe env)
      end
      else in_context where (fun () -> stage_leaf o)
    and stage_leaf (o : op) : instr option =
      let opnd n = use (operand o n) in
      let res () = bind (result o) in
      match o.opname with
      | "csl.get_global" ->
          let g = global (string_attr_exn o "gname") and r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 1.0;
              env.(r) <- Cview (Bufview.of_array pe.globals.(g)))
      | "csl.deref_ptr" ->
          let p = ptr (string_attr_exn o "gname") and r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 1.0;
              env.(r) <- Cview (Bufview.of_array pe.globals.(pe.ptrs.(p))))
      | "csl.load_scalar" ->
          let s = find_slot "scalar" scalar_index (string_attr_exn o "gname") in
          let r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 1.0;
              env.(r) <- Cint pe.scalars.(s))
      | "csl.store_scalar" ->
          let s = find_slot "scalar" scalar_index (string_attr_exn o "gname") in
          let a = opnd 0 in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 1.0;
              pe.scalars.(s) <- int_of env a)
      | "csl.get_mem_dsd" ->
          let a = opnd 0 in
          let off = int_attr_exn o "offset" and len = int_attr_exn o "length" in
          let stride = Option.value (int_attr o "stride") ~default:1 in
          let r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 2.0;
              let b = view_of env a in
              env.(r) <-
                Cview
                  (Bufview.make b.Bufview.data ~off:(b.Bufview.off + off) ~len ~stride ()))
      | "csl.increment_dsd_offset" ->
          let a = opnd 0 in
          let by : cell array -> int =
            match (int_attr o "by", o.operands) with
            | Some k, _ -> fun _ -> k
            | None, [ _; v ] ->
                let s = use v in
                fun env -> int_of env s
            | _ -> fail "no offset"
          in
          let r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 2.0;
              let b = view_of env a in
              env.(r) <-
                Cview { b with Bufview.off = b.Bufview.off + (by env * b.Bufview.stride) })
      | "csl.set_dsd_length" ->
          let a = opnd 0 and len = int_attr_exn o "length" in
          let r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 2.0;
              env.(r) <- Cview { (view_of env a) with Bufview.len })
      | "csl.set_dsd_base_addr" ->
          let a = opnd 0 and base = opnd 1 in
          let r = res () in
          Some
            (fun pe env ->
              pe.clock <- pe.clock +. 2.0;
              let b = view_of env a and base = view_of env base in
              env.(r) <-
                Cview { b with Bufview.data = base.Bufview.data; off = base.Bufview.off })
      | ("csl.fadds" | "csl.fsubs" | "csl.fmuls") as opname ->
          let op : Bufview.op =
            match opname with "csl.fadds" -> Add | "csl.fsubs" -> Sub | _ -> Mul
          in
          let d = opnd 0 and x = opnd 1 and y = opnd 2 in
          Some
            (fun pe env ->
              let dest = view_of env d in
              let a, b =
                match (env.(x), env.(y)) with
                | Cview a, Cview b -> (a, b)
                | Cview a, Cfloat k -> (a, Bufview.splat k ~len:a.Bufview.len)
                | Cview a, Cint i ->
                    (a, Bufview.splat (float_of_int i) ~len:a.Bufview.len)
                | Cfloat k, Cview b -> (Bufview.splat k ~len:b.Bufview.len, b)
                | _ -> fail "%s: bad operands" opname
              in
              Bufview.arith_into op a b dest;
              builtin_cost m pe 12.0 dest.Bufview.len;
              pe.stats.flops <- pe.stats.flops +. float_of_int dest.Bufview.len)
      | "csl.fmacs" ->
          let d = opnd 0 and x = opnd 1 and y = opnd 2 and k = opnd 3 in
          Some
            (fun pe env ->
              let dest = view_of env d in
              Bufview.fmac_into (view_of env x) (view_of env y) (float_of env k) dest;
              builtin_cost m pe 12.0 dest.Bufview.len;
              pe.stats.flops <- pe.stats.flops +. (2.0 *. float_of_int dest.Bufview.len))
      | "csl.fmovs" ->
          let d = opnd 0 and s = opnd 1 in
          Some
            (fun pe env ->
              let dest = view_of env d in
              (match env.(s) with
              | Cview a -> Bufview.blit ~src:a ~dst:dest
              | Cfloat k -> Bufview.fill dest k
              | _ -> fail "fmovs: bad source");
              builtin_cost m pe 8.0 dest.Bufview.len)
      | "arith.constant" ->
          let c =
            match attr o "value" with
            | Some (Int_attr i) -> Cint i
            | Some (Float_attr f) -> Cfloat f
            | _ -> fail "bad constant"
          in
          let r = res () in
          Some (fun _ env -> env.(r) <- c)
      | "arith.addi" ->
          let a = opnd 0 and b = opnd 1 in
          let r = res () in
          Some (fun _ env -> env.(r) <- Cint (int_of env a + int_of env b))
      | "arith.cmpi" ->
          let a = opnd 0 and b = opnd 1 in
          let pred : int -> int -> bool =
            match string_attr_exn o "predicate" with
            | "slt" -> ( < )
            | "sle" -> ( <= )
            | "sgt" -> ( > )
            | "sge" -> ( >= )
            | "eq" -> ( = )
            | "ne" -> ( <> )
            | p -> fail "unknown predicate %s" p
          in
          let r = res () in
          Some
            (fun _ env ->
              env.(r) <- Cint (if pred (int_of env a) (int_of env b) then 1 else 0))
      | "csl.call" ->
          let j = callback ~args:0 (string_attr_exn o "callee") in
          Some
            (fun pe _ ->
              pe.clock <- pe.clock +. call_cycles;
              exec fns.(j) pe Cunset)
      | "csl.activate" ->
          let j = callback ~args:0 (string_attr_exn o "task") in
          Some
            (fun pe _ ->
              pe.clock <- pe.clock +. 2.0;
              pe.stats.task_activations <- pe.stats.task_activations + 1;
              pe.task_queue <- pe.task_queue @ [ (pe.clock +. activate_cycles, fns.(j)) ])
      | "csl.assign_ptrs" ->
          let slots k = Array.of_list (List.map ptr (Csl.string_list_attr o k)) in
          let dests = slots "dests" and srcs = slots "srcs" in
          if Array.length dests <> Array.length srcs then
            fail "%d dests for %d srcs" (Array.length dests) (Array.length srcs);
          Some
            (fun pe _ ->
              pe.clock <- pe.clock +. 4.0;
              let olds = Array.map (fun s -> pe.ptrs.(s)) srcs in
              Array.iteri (fun i d -> pe.ptrs.(d) <- olds.(i)) dests)
      | "csl.member_call" -> (
          match string_attr_exn o "field" with
          | "communicate" ->
              let plan =
                decode_comm m ~ptr ~global ~callback ~seq_slot:(declare seq_slots)
                  (attr_exn o "config")
              in
              Array.iter
                (fun inp ->
                  Array.iter
                    (fun sw -> reach := max !reach (Array.length sw.sw_src))
                    inp.in_swaps)
                plan.inputs;
              Some
                (fun pe _ ->
                  pe.clock <- pe.clock +. call_cycles;
                  pe.pending <- plan :: pe.pending)
          | f -> fail "unknown library function %s" f)
      | "csl.unblock_cmd_stream" -> Some (fun pe _ -> pe.finished <- true)
      | "csl.return" -> None
      | _ -> fail "unsupported op"
    in
    let body = stage_block blk in
    { fn_name = name; fn_args = List.length blk.bargs; fn_slots = !next; fn_body = body }
  in
  Array.iteri (fun i name -> fns.(i) <- stage_fn name) names;
  {
    fns;
    fn_index;
    run = in_context "entry point" (fun () -> callback ~args:0 "run");
    global_index;
    global_sizes = table global_index !sizes;
    scalar_index;
    scalar_init = table scalar_index !inits;
    ptr_index;
    ptr_init = table ptr_index ptr_targets;
    n_seq = Hashtbl.length seq_slots;
    reach = !reach;
  }

(** {1 Simulator} *)

type t = {
  machine : Machine.t;
  program : op;
  code : code;  (** the staged program, shared by every PE and strip *)
  width : int;
  height : int;
  pes : pe array array;
  sends : (int * int * int * int, send_record) Hashtbl.t;
      (** (apply, seq, x, y) -> record, until every receiver in columns
          [x_lo..x_hi] has consumed it *)
  x_lo : int;
  x_hi : int;
      (** columns whose receivers read from [sends]: the whole grid, or
          one strip of the parallel driver *)
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident boundary columns (x, y outside the PE grid) *)
  z_halo : int;
  zfull : int;
  nz : int;
  sched : Sched.t;
  trace : Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Trace.null} (the default) every site is a dead branch and
          results are bit-identical to an untraced run *)
  faults : Faults.t;
      (** fault-injection schedule and resilience bookkeeping; with
          {!Faults.null} (the default) every injection site is a dead
          branch, exactly like the trace sink *)
  mutable on_send : (Sched.key -> send_record -> unit) option;
      (** observation hook run by the send-registration path right after
          a record is stored: the parallel driver exports boundary sends
          to its per-edge mailboxes through it.  [None] (the sequential
          drivers) costs one branch per send. *)
}

let new_pe (code : code) x y : pe =
  {
    px = x;
    py = y;
    globals = Array.map (fun n -> Array.make n 0.0) code.global_sizes;
    scalars = Array.copy code.scalar_init;
    ptrs = Array.copy code.ptr_init;
    clock = 0.0;
    finished = false;
    task_queue = [];
    waiting = None;
    seq = Array.make code.n_seq 0;
    pending = [];
    stats =
      {
        compute_cycles = 0.0;
        send_cycles = 0.0;
        wait_cycles = 0.0;
        task_activations = 0;
        flops = 0.0;
        elems_sent = 0;
        elems_drained = 0;
        mem_bytes = 0.0;
      };
  }

(** Largest PE grid the simulator will instantiate in one process.  Full
    wafers are measured through the proxy-grid extrapolation in
    [Wsc_perf.Wse_perf] instead of being simulated whole. *)
let max_simulated_pes = 64 * 1024

let create ?(trace = Trace.null) ?(faults = Faults.null) (machine : Machine.t)
    (program : op) : t =
  let width = int_attr_exn program "width" in
  let height = int_attr_exn program "height" in
  if width > machine.max_width || height > machine.max_height then
    fail "PE grid %dx%d exceeds %s fabric %dx%d" width height machine.name
      machine.max_width machine.max_height;
  if width * height > max_simulated_pes then
    fail
      "PE grid %dx%d is too large to simulate in-process (max %d PEs); use a \
       proxy grid and the perf harness for full-wafer measurements"
      width height max_simulated_pes;
  let mem = int_attr_exn program "memory_bytes" in
  if mem > machine.pe_memory_bytes then
    fail "program needs %d bytes per PE; %s provides %d" mem machine.name
      machine.pe_memory_bytes;
  let code = stage machine program in
  if Trace.enabled trace then begin
    Trace.name_process trace ~pid:Trace.fabric_pid "fabric";
    for x = 0 to width - 1 do
      for y = 0 to height - 1 do
        Trace.name_track trace ~pid:Trace.fabric_pid ~tid:((y * width) + x)
          (Printf.sprintf "PE(%d,%d)" x y)
      done
    done
  end;
  {
    machine;
    program;
    code;
    width;
    height;
    pes = Array.init width (fun x -> Array.init height (fun y -> new_pe code x y));
    sends = Hashtbl.create 1024;
    x_lo = 0;
    x_hi = width - 1;
    halo = Hashtbl.create 64;
    z_halo = int_attr_exn program "z_halo";
    zfull = int_attr_exn program "zfull";
    nz = int_attr_exn program "nz";
    sched = Sched.create ~width ~height;
    trace;
    faults;
    on_send = None;
  }

(** The buffer a pointer global of [pe] currently targets. *)
let deref (sim : t) (pe : pe) (ptr : string) : float array =
  match Hashtbl.find_opt sim.code.ptr_index ptr with
  | Some p -> pe.globals.(pe.ptrs.(p))
  | None -> fail "PE(%d,%d): no pointer %s" pe.px pe.py ptr

(** The slot of a scalar global in every PE's [scalars]. *)
let scalar_slot (sim : t) (name : string) : int =
  find_slot "scalar" sim.code.scalar_index name

(** A staged function or task by name. *)
let find_fn (sim : t) (name : string) : fn =
  sim.code.fns.(find_slot "function or task" sim.code.fn_index name)

(** {1 Trace emission}

    All emission is observation-only: helpers read PE clocks and send
    records but never touch simulation state, and every allocation
    (names, args) sits behind a {!Trace.enabled} branch, so with the
    null sink a traced build is bit-identical to the seed simulator. *)

let tid_of (sim : t) (pe : pe) : int = (pe.py * sim.width) + pe.px

(** A completed [t0, t1] span on [pe]'s track. *)
let trace_span (sim : t) (pe : pe) ~(cat : string) ~(name : string) (t0 : float)
    (t1 : float) : unit =
  if Trace.enabled sim.trace then begin
    let tid = tid_of sim pe in
    Trace.span_begin sim.trace ~pid:Trace.fabric_pid ~tid ~cat ~name t0;
    Trace.span_end sim.trace ~pid:Trace.fabric_pid ~tid ~cat ~name t1
  end

let trace_instant (sim : t) (pe : pe) ~(cat : string) ~(name : string)
    (ts : float) : unit =
  if Trace.enabled sim.trace then
    Trace.instant sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim pe) ~cat ~name
      ts

(** One chunk's journey over a link, as an async flow: begins on the
    sender's track when the chunk's injection completes, ends on the
    receiver's track at delivery. *)
let trace_link (sim : t) ~(src : pe) ~(dst : pe) ~(dir : Dmp.direction)
    ~(chunk : int) ~(elems : int) ~(ready : float) ~(arrival : float) : unit =
  if Trace.enabled sim.trace then begin
    let id = Trace.fresh_flow_id sim.trace in
    let dir_name = Dmp.direction_to_string dir in
    Trace.flow_begin sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim src)
      ~cat:"link" ~name:"xfer" ~id
      ~args:
        [
          ("dir", Trace.Astr dir_name);
          ("chunk", Trace.Aint chunk);
          ("elems", Trace.Aint elems);
        ]
      ready;
    Trace.flow_end sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim dst)
      ~cat:"link" ~name:"xfer" ~id arrival
  end

(** {1 Fault injection}

    Injection sites mirror the trace sites: every decision sits behind a
    {!Faults.enabled} branch so the {!Faults.null} injector (and any
    injector with all rates zero) leaves the simulation bit-identical to
    the seed simulator.  Decisions are pure hashes of the campaign seed
    and the site's coordinates, never of execution order, so both
    drivers agree on every fault (see {!Wsc_faults.Faults}). *)

let trace_fault (sim : t) (pe : pe) ~(name : string) (ts : float) : unit =
  if Trace.enabled sim.trace then
    Trace.instant sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim pe)
      ~cat:"fault" ~name ts

(** What a chunk-column delivery amounts to after the link's faults and
    (when enabled) the recovery protocol have run their course. *)
type delivery =
  | Clean  (** payload intact *)
  | Damaged of int * float  (** element index hit, additive noise *)
  | Lost  (** wavelets never delivered: the slot reads as zeroes *)

(** Resolve the fate of one chunk-column crossing the link from the
    sender at hop distance [d]: apply a backpressure spike, then either
    let a transient drop/corruption land undetected (no resilience) or
    drive the detection & recovery protocol — per-wavelet checksums
    catch corruption on arrival, a receiver timeout with bounded
    exponential backoff catches loss, and each retransmission re-pays
    the NACK round trip plus chunk re-injection — until a clean copy
    lands or the receiver exhausts [max_retries] and gives up.  Returns
    the delivery time and the payload outcome.  All costs are charged
    receiver-side (the sender's router retransmits autonomously), so no
    other PE's state is touched and driver bit-identity is preserved. *)
let link_outcome (sim : t) (pe : pe) ~(apply : int) ~(seq : int) ~(chunk : int)
    ~(input : int) ~(sx : int) ~(sy : int) ~(d : int) ~(col : float array)
    ~(off : int) ~(cs : int) (at : float) : float * delivery =
  let f = sim.faults in
  let st = Faults.stats f in
  let m = sim.machine in
  let dx = pe.px and dy = pe.py in
  let at = ref at in
  (* the counters in [st] are shared by every domain of the parallel
     driver, so every update goes through the injector's lock; the
     decisions themselves are pure and need none *)
  if Faults.backpressure_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy then begin
    Faults.locked f (fun () -> st.backpressures <- st.backpressures + 1);
    at := !at +. (Faults.config f).backpressure_cycles;
    trace_fault sim pe ~name:"backpressure" !at
  end;
  let fault attempt =
    if Faults.drop_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
    then Some Lost
    else if
      Faults.corrupt_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
    then
      let idx, noise =
        Faults.corruption f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
          ~len:cs
      in
      Some (Damaged (idx, noise))
    else None
  in
  match (Faults.config f).resilience with
  | None -> (
      (* no protocol: whatever the link did is what the PE computes on *)
      match fault 0 with
      | None -> (!at, Clean)
      | Some Lost ->
          Faults.locked f (fun () -> st.drops <- st.drops + 1);
          trace_fault sim pe ~name:"drop" !at;
          (!at, Lost)
      | Some (Damaged _ as dmg) ->
          Faults.locked f (fun () -> st.corrupts <- st.corrupts + 1);
          trace_fault sim pe ~name:"corrupt" !at;
          (!at, dmg)
      | Some Clean -> assert false)
  | Some r ->
      let self_mul = if m.self_send then 2.0 else 1.0 in
      let reinject = float_of_int cs *. m.send_cycles_per_elem *. self_mul in
      let rtt = float_of_int (2 * d * m.hop_cycles) in
      let rec attempt a =
        match fault a with
        | None ->
            (* on the wire intact; the receiver-side checksum agrees
               with the one carried in the wavelet header, so accept *)
            (!at, Clean)
        | Some outcome ->
            let detected =
              match outcome with
              | Lost ->
                  Faults.locked f (fun () -> st.drops <- st.drops + 1);
                  trace_fault sim pe ~name:"drop" !at;
                  (* loss is always detected: the sequence number never
                     arrives and the receiver timeout fires *)
                  true
              | Damaged (idx, noise) ->
                  Faults.locked f (fun () -> st.corrupts <- st.corrupts + 1);
                  trace_fault sim pe ~name:"corrupt" !at;
                  (* receiver-side integrity check: recompute the
                     checksum over the damaged copy and compare against
                     the sender's (computed over the snapshot); only a
                     checksum collision goes undetected *)
                  let damaged = Array.sub col off cs in
                  damaged.(idx) <- damaged.(idx) +. noise;
                  Faults.checksum damaged ~off:0 ~len:cs
                  <> Faults.checksum col ~off ~len:cs
              | Clean -> assert false
            in
            if not detected then
              (!at, outcome) (* undetected corruption: delivered as-is *)
            else if a >= r.Faults.max_retries then begin
              Faults.locked f (fun () -> st.giveups <- st.giveups + 1);
              Faults.taint f ~x:pe.px ~y:pe.py;
              trace_fault sim pe ~name:"giveup" !at;
              (!at, Lost)
            end
            else begin
              (* loss is detected by the sequence-number timeout (with
                 exponential backoff); corruption by the checksum, which
                 NACKs immediately *)
              let wait =
                match outcome with
                | Lost -> Faults.backoff r ~attempt:(a + 1)
                | _ -> 0.0
              in
              let cost = wait +. rtt +. reinject in
              at := !at +. cost;
              Faults.locked f (fun () ->
                  st.retries <- st.retries + 1;
                  st.recovery_cycles <- st.recovery_cycles +. cost);
              trace_fault sim pe ~name:"retry" !at;
              attempt (a + 1)
            end
      in
      attempt 0

(** {1 Communication engine} *)

let in_grid sim x y = x >= 0 && x < sim.width && y >= 0 && y < sim.height

(** Receivers of a record sent from (sx, sy): the in-grid PEs at
    minus each source offset, restricted to columns [x0..x1]. *)
let count_readers (sim : t) ~(x0 : int) ~(x1 : int) ~(sx : int) ~(sy : int)
    (offsets : (int * int) array) : int =
  let n = ref 0 in
  Array.iter
    (fun (dx, dy) ->
      let rx = sx - dx and ry = sy - dy in
      if in_grid sim rx ry && rx >= x0 && rx <= x1 then incr n)
    offsets;
  !n

(** Hold a copy of [r] in [sim]'s send table until every receiver among
    the table's columns has consumed it ({!release_send}); a table with
    no such receiver does not keep it at all. *)
let store_send (sim : t) ((_, _, sx, sy) as key : Sched.key) (r : send_record) :
    unit =
  let n = count_readers sim ~x0:sim.x_lo ~x1:sim.x_hi ~sx ~sy r.sr_offsets in
  if n > 0 then begin
    Hashtbl.replace sim.sends key { r with sr_unread = n };
    let st = sim.sched.Sched.stats in
    let live = Hashtbl.length sim.sends in
    if live > st.Sched.max_live_sends then st.Sched.max_live_sends <- live
  end

(** One receiver has consumed the record under [key]: evict it from the
    table once every receiver of the table has, and forget its taint
    entry once every receiver of the grid has. *)
let release_send (sim : t) ((apply, seq, x, y) as key : Sched.key) : unit =
  match Hashtbl.find_opt sim.sends key with
  | None -> () (* skipped: the sender halted and never registered *)
  | Some r ->
      r.sr_unread <- r.sr_unread - 1;
      if r.sr_unread = 0 then Hashtbl.remove sim.sends key;
      if Atomic.fetch_and_add r.sr_pending (-1) = 1 && Faults.enabled sim.faults
      then Faults.forget_send sim.faults ~apply ~seq ~x ~y

(** Register this PE's send for an exchange: snapshot the z range of each
    send buffer, charge injection cost, record chunk completion times. *)
let register_send (sim : t) (pe : pe) (cfg : comm) (seq : int) : unit =
  let data =
    Array.map
      (fun inp -> Array.sub pe.globals.(pe.ptrs.(inp.in_ptr)) cfg.z_base cfg.c_nz)
      cfg.inputs
  in
  let chunk_cost = cfg.chunk_cost in
  let ready =
    Array.init cfg.num_chunks (fun k ->
        pe.clock +. (float_of_int (k + 1) *. chunk_cost))
  in
  pe.stats.send_cycles <- pe.stats.send_cycles +. (float_of_int cfg.num_chunks *. chunk_cost);
  pe.stats.elems_sent <- pe.stats.elems_sent + cfg.send_elems;
  (* injection overlaps with waiting: model sender as busy for the first
     chunk only; the rest stream out asynchronously *)
  let inject_start = pe.clock in
  pe.clock <- pe.clock +. chunk_cost;
  if Trace.enabled sim.trace then
    trace_span sim pe ~cat:"send"
      ~name:(Printf.sprintf "inject a%d#%d" cfg.apply_id seq)
      inject_start pe.clock;
  let readers =
    count_readers sim ~x0:0 ~x1:(sim.width - 1) ~sx:pe.px ~sy:pe.py cfg.src_offsets
  in
  let record =
    {
      sr_chunk_ready = ready;
      sr_data = data;
      sr_offsets = cfg.src_offsets;
      sr_unread = 0;
      sr_pending = Atomic.make readers;
    }
  in
  (* taint propagation: data computed from substituted or unrecoverable
     inputs invalidates every receiver that reduces this send.  Marked
     before the record is published, so no receiver (in another strip
     of the parallel driver) can consume it unmarked. *)
  if Faults.enabled sim.faults && Faults.is_tainted sim.faults ~x:pe.px ~y:pe.py
  then Faults.taint_send sim.faults ~apply:cfg.apply_id ~seq ~x:pe.px ~y:pe.py;
  store_send sim (cfg.apply_id, seq, pe.px, pe.py) record;
  (match sim.on_send with
  | None -> ()
  | Some export -> export (cfg.apply_id, seq, pe.px, pe.py) record);
  (* wake any neighbour parked on this send *)
  let woken = Sched.notify sim.sched (cfg.apply_id, seq, pe.px, pe.py) in
  if Trace.enabled sim.trace then
    List.iter
      (fun idx ->
        let wpe = sim.pes.(idx mod sim.width).(idx / sim.width) in
        trace_instant sim wpe ~cat:"sched" ~name:"wake" wpe.clock)
      woken

(** Where a receiver's column comes from. *)
type source =
  | Src_fabric of send_record  (** a neighbour's snapshot *)
  | Src_halo of float array  (** host-resident boundary column *)
  | Src_skipped
      (** the sender halted and the resilience layer degraded past it:
          receivers substitute zeroes and mark their data invalid *)

(** Whether the sender at offset (dx, dy) has made its column available.
    Boundary columns are held host-side and always are. *)
let source_present (sim : t) (pe : pe) (cfg : comm) (seq : int)
    ((dx, dy) : int * int) : bool =
  let sx = pe.px + dx and sy = pe.py + dy in
  (not (in_grid sim sx sy))
  || Hashtbl.mem sim.sends (cfg.apply_id, seq, sx, sy)
  || Faults.enabled sim.faults
     && Faults.is_skipped sim.faults ~apply:cfg.apply_id ~seq ~x:sx ~y:sy

(** The column a receiver gets from offset (dx, dy), once
    {!source_present}.  Fixed for the whole exchange: the record stays
    in the table until this receiver releases it. *)
let source_column (sim : t) (pe : pe) (cfg : comm) (seq : int)
    ((dx, dy) : int * int) : source =
  let sx = pe.px + dx and sy = pe.py + dy in
  if in_grid sim sx sy then
    match Hashtbl.find_opt sim.sends (cfg.apply_id, seq, sx, sy) with
    | Some sr -> Src_fabric sr
    | None ->
        if
          Faults.enabled sim.faults
          && Faults.is_skipped sim.faults ~apply:cfg.apply_id ~seq ~x:sx ~y:sy
        then Src_skipped
        else fail "complete_exchange: sender disappeared"
  else
    match Hashtbl.find_opt sim.halo (sx, sy) with
    | Some col -> Src_halo col
    | None -> fail "no boundary column for (%d,%d)" sx sy

(** Check whether all senders this PE depends on have registered. *)
let exchange_ready (sim : t) (pe : pe) (w : waiting) : bool =
  Array.for_all (source_present sim pe w.w_cfg w.w_seq) w.w_cfg.src_offsets

(** Write [col]'s chunk, which starts at [src], into receive buffer
    [rcv] as damaged (or lost) by the link's [outcome]: accumulated
    with coefficient [coef] into a promoted staging buffer, or copied to
    the hop's slot at [slot] otherwise. *)
let deliver (cfg : comm) (rcv : float array) ~(slot : int) ~(coef : float)
    (col : float array) (src : int) (outcome : delivery) : unit =
  let cs = cfg.chunk_size in
  if cfg.promoted then
    match outcome with
    | Lost -> () (* the missing contribution reads as zero *)
    | Clean ->
        for z = 0 to cs - 1 do
          rcv.(z) <- rcv.(z) +. (coef *. col.(src + z))
        done
    | Damaged (idx, noise) ->
        for z = 0 to cs - 1 do
          let v = col.(src + z) in
          let v = if z = idx then v +. noise else v in
          rcv.(z) <- rcv.(z) +. (coef *. v)
        done
  else
    match outcome with
    | Lost -> Array.fill rcv slot cs 0.0
    | Clean -> Array.blit col src rcv slot cs
    | Damaged (idx, noise) ->
        Array.blit col src rcv slot cs;
        rcv.(slot + idx) <- rcv.(slot + idx) +. noise

(** Deliver all chunks and run the callbacks; assumes {!exchange_ready}. *)
let rec complete_exchange (sim : t) (pe : pe) (w : waiting) : unit =
  let m = sim.machine in
  let cfg = w.w_cfg in
  let cs = cfg.chunk_size in
  let sources = Array.map (source_column sim pe cfg w.w_seq) cfg.src_offsets in
  for k = 0 to cfg.num_chunks - 1 do
    let off = k * cs in
    let arrival = ref w.w_registered_at in
    (* promoted staging buffers accumulate; clear once per chunk (with
       the one-shot reduction several directions share one buffer) *)
    Array.iter
      (fun g ->
        let rcv = pe.globals.(g) in
        Array.fill rcv 0 (Array.length rcv) 0.0)
      cfg.staging;
    (* deliver into receive buffers *)
    Array.iteri
      (fun i inp ->
        Array.iter
          (fun sw ->
            let rcv = pe.globals.(sw.sw_rcv) in
            for d = 1 to Array.length sw.sw_src do
              let j = sw.sw_src.(d - 1) in
              let slot = (d - 1) * cs and coef = sw.sw_coef.(d - 1) in
              match sources.(j) with
              | Src_halo col ->
                  (* host links are outside the fault model *)
                  deliver cfg rcv ~slot ~coef col
                    ((inp.in_halo * sim.zfull) + cfg.z_base + off)
                    Clean
              | Src_fabric sr ->
                  let col = sr.sr_data.(i) and r = sr.sr_chunk_ready in
                  let dx, dy = cfg.src_offsets.(j) in
                  let sx = pe.px + dx and sy = pe.py + dy in
                  let at0 = r.(k) +. float_of_int (d * m.hop_cycles) in
                  let at, outcome =
                    if Faults.enabled sim.faults then
                      link_outcome sim pe ~apply:cfg.apply_id ~seq:w.w_seq
                        ~chunk:k ~input:i ~sx ~sy ~d ~col ~off ~cs at0
                    else (at0, Clean)
                  in
                  arrival := Float.max !arrival at;
                  trace_link sim ~src:sim.pes.(sx).(sy) ~dst:pe ~dir:sw.sw_dir
                    ~chunk:k ~elems:cs ~ready:r.(k) ~arrival:at;
                  if
                    Faults.enabled sim.faults
                    && Faults.is_tainted_send sim.faults ~apply:cfg.apply_id
                         ~seq:w.w_seq ~x:sx ~y:sy
                  then Faults.taint sim.faults ~x:pe.px ~y:pe.py;
                  deliver cfg rcv ~slot ~coef col off outcome
              | Src_skipped ->
                  (* sender halted: the receiver waited out the halt
                     timeout, substitutes zeroes and marks itself *)
                  (match (Faults.config sim.faults).resilience with
                  | Some r ->
                      arrival :=
                        Float.max !arrival
                          (w.w_registered_at +. r.Faults.halt_timeout_cycles)
                  | None -> ());
                  Faults.taint sim.faults ~x:pe.px ~y:pe.py;
                  deliver cfg rcv ~slot ~coef [||] 0 Lost
            done)
          inp.in_swaps)
      cfg.inputs;
    (* run the chunk callback once data for this chunk has arrived *)
    if !arrival > pe.clock then begin
      trace_span sim pe ~cat:"wait" ~name:"parked-on-exchange" pe.clock !arrival;
      pe.stats.wait_cycles <- pe.stats.wait_cycles +. (!arrival -. pe.clock);
      pe.clock <- !arrival
    end;
    (* queue-drain cost: every incoming wavelet is moved (and, with
       promoted coefficients, reduced) from the input queue to memory by
       the communication library *)
    trace_span sim pe ~cat:"recv" ~name:"drain" pe.clock (pe.clock +. cfg.drain);
    pe.clock <- pe.clock +. cfg.drain;
    pe.stats.compute_cycles <- pe.stats.compute_cycles +. cfg.drain;
    pe.stats.elems_drained <- pe.stats.elems_drained + cfg.incoming;
    (* with promoted coefficients the drain IS the algorithmic multiply
       and accumulate (@fmacs off the fabric queue, SS5.7) *)
    if cfg.promoted then
      pe.stats.flops <- pe.stats.flops +. (2.0 *. float_of_int cfg.incoming);
    pe.stats.task_activations <- pe.stats.task_activations + 1;
    pe.clock <- pe.clock +. float_of_int m.task_activate_cycles;
    let cb = sim.code.fns.(cfg.chunk_cb) in
    let cb_start = pe.clock in
    exec cb pe (Cint off);
    (* a chunk callback's own communicate calls are not started *)
    pe.pending <- [];
    trace_span sim pe ~cat:"compute" ~name:cb.fn_name cb_start pe.clock
  done;
  (* every chunk of every source is in: this receiver is done with them *)
  Array.iter
    (fun (dx, dy) ->
      let sx = pe.px + dx and sy = pe.py + dy in
      if in_grid sim sx sy then release_send sim (cfg.apply_id, w.w_seq, sx, sy))
    cfg.src_offsets;
  (* done callback: one final task activation *)
  pe.stats.task_activations <- pe.stats.task_activations + 1;
  pe.clock <- pe.clock +. float_of_int m.task_activate_cycles;
  let done_cb = sim.code.fns.(cfg.done_cb) in
  let done_start = pe.clock in
  exec done_cb pe Cunset;
  trace_span sim pe ~cat:"compute" ~name:done_cb.fn_name done_start pe.clock;
  (* the done callback may start the next exchange *)
  start_pending sim pe

and start_exchange (sim : t) (pe : pe) (cfg : comm) : unit =
  let seq = pe.seq.(cfg.seq_slot) in
  pe.seq.(cfg.seq_slot) <- seq + 1;
  register_send sim pe cfg seq;
  if pe.waiting <> None then fail "PE(%d,%d): overlapping exchanges" pe.px pe.py;
  pe.waiting <- Some { w_cfg = cfg; w_seq = seq; w_registered_at = pe.clock }

(** Start the exchanges the activation that just ran issued. *)
and start_pending (sim : t) (pe : pe) : unit =
  List.iter (start_exchange sim pe) (take_pending pe)

(** {1 Driver} *)

(** Run one queued task; returns true if anything executed.  The hardware
    scheduler dispatches the earliest-activated task, not the most
    recently queued one, so pop the entry with the smallest activation
    timestamp (ties resolve in insertion order). *)
let run_tasks (sim : t) (pe : pe) : bool =
  match pe.task_queue with
  | [] -> false
  | q ->
      let earliest = List.fold_left (fun acc (t, _) -> Float.min acc t) infinity q in
      let rec extract acc = function
        | (t, f) :: rest when t = earliest -> ((t, f), List.rev_append acc rest)
        | e :: rest -> extract (e :: acc) rest
        | [] ->
            fail
              "PE(%d,%d): task-queue invariant violated: earliest activation \
               %g vanished while dispatching (queue: [%s])"
              pe.px pe.py earliest
              (String.concat "; "
                 (List.map (fun (at, f) -> Printf.sprintf "%s@%g" f.fn_name at) q))
      in
      (* fault injection at the dispatch point: the hardware scheduler is
         where a stuck or dead PE stops taking work *)
      let halted =
        Faults.enabled sim.faults
        && begin
             let n = Faults.next_dispatch sim.faults ~x:pe.px ~y:pe.py in
             if Faults.halt_here sim.faults ~x:pe.px ~y:pe.py ~activation:n
             then begin
               Faults.record_halt sim.faults ~x:pe.px ~y:pe.py;
               trace_fault sim pe ~name:"halt" pe.clock;
               true
             end
             else begin
               if Faults.stall_here sim.faults ~x:pe.px ~y:pe.py ~activation:n
               then begin
                 let cycles = (Faults.config sim.faults).stall_cycles in
                 Faults.locked sim.faults (fun () ->
                     let st = Faults.stats sim.faults in
                     st.stalls <- st.stalls + 1);
                 trace_span sim pe ~cat:"fault" ~name:"stall" pe.clock
                   (pe.clock +. cycles);
                 pe.clock <- pe.clock +. cycles;
                 pe.stats.wait_cycles <- pe.stats.wait_cycles +. cycles
               end;
               false
             end
           end
      in
      if halted then false
      else begin
        let (t, f), rest = extract [] q in
        pe.task_queue <- rest;
        pe.clock <- Float.max pe.clock t;
        let task_start = pe.clock in
        exec f pe Cunset;
        trace_span sim pe ~cat:"compute" ~name:f.fn_name task_start pe.clock;
        start_pending sim pe;
        true
      end

(** Advance one PE as far as possible; returns true on progress. *)
let step_pe (sim : t) (pe : pe) : bool =
  if
    pe.finished
    || Faults.enabled sim.faults
       && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py
  then false
  else begin
    let progressed = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      (match pe.waiting with
      | Some w when exchange_ready sim pe w ->
          pe.waiting <- None;
          complete_exchange sim pe w;
          progressed := true;
          continue_ := true
      | _ -> ());
      if pe.waiting = None && run_tasks sim pe then begin
        progressed := true;
        continue_ := true
      end;
      if pe.finished then continue_ := false
    done;
    !progressed
  end

(** Start the program on the PEs of columns [x0..x1] (the parallel
    driver launches each strip from its own domain). *)
let launch_cols (sim : t) (x0 : int) (x1 : int) : unit =
  for x = x0 to x1 do
    Array.iter
      (fun pe ->
        let run_start = pe.clock in
        exec sim.code.fns.(sim.code.run) pe Cunset;
        trace_span sim pe ~cat:"compute" ~name:"run" run_start pe.clock;
        start_pending sim pe)
      sim.pes.(x)
  done

(** Start the program on every PE (host calls the exported [run]). *)
let launch (sim : t) : unit = launch_cols sim 0 (sim.width - 1)

(** {2 Deadlock diagnostics} *)

(** In-grid senders of [w] that have not registered their send yet. *)
let missing_senders (sim : t) (pe : pe) (w : waiting) : (int * int) list =
  Array.fold_right
    (fun ((dx, dy) as o) acc ->
      let sx = pe.px + dx and sy = pe.py + dy in
      if in_grid sim sx sy && not (source_present sim pe w.w_cfg w.w_seq o) then
        (sx, sy) :: acc
      else acc)
    w.w_cfg.src_offsets []

(** Quiescence sweep; probes finished flags until the first unfinished
    PE, counting each probe — the polling driver pays this sweep every
    round, the event-driven driver only at the very end. *)
let all_done (sim : t) : bool =
  let st = sim.sched.Sched.stats in
  let done_ = ref true in
  (try
     Array.iter
       (fun col ->
         Array.iter
           (fun pe ->
             st.probes <- st.probes + 1;
             (* a permanently halted PE will never unblock the command
                stream; it is accounted for by the validity mask *)
             if
               (not pe.finished)
               && not
                    (Faults.enabled sim.faults
                    && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py)
             then begin
               done_ := false;
               raise Exit
             end)
           col)
       sim.pes
   with Exit -> ());
  !done_

(** Per-PE report of who is stuck on what: blocked PEs with their
    exchange id and the neighbours that never sent, plus PEs that are
    idle with no runnable work.  Capped so a wafer-scale deadlock does
    not produce a megabyte of text. *)
let deadlock_report (sim : t) : string =
  let max_detail = 16 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "deadlock: no PE can progress\n";
  let blocked = ref 0 and idle = ref 0 in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          if
            (not pe.finished)
            && not
                 (Faults.enabled sim.faults
                 && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py)
          then
            match pe.waiting with
            | Some w ->
                incr blocked;
                if !blocked <= max_detail then begin
                  let miss = missing_senders sim pe w in
                  Buffer.add_string buf
                    (Printf.sprintf
                       "  PE(%d,%d) blocked on exchange (apply_id=%d, seq=%d): \
                        missing sender%s %s\n"
                       pe.px pe.py w.w_cfg.apply_id w.w_seq
                       (if List.length miss = 1 then "" else "s")
                       (if miss = [] then "<none: exchange ready but unscheduled>"
                        else
                          String.concat ", "
                            (List.map
                               (fun (x, y) -> Printf.sprintf "PE(%d,%d)" x y)
                               miss)))
                end
            | None ->
                incr idle;
                if !idle <= max_detail then
                  Buffer.add_string buf
                    (Printf.sprintf
                       "  PE(%d,%d) idle: not finished but has no queued task or \
                        pending exchange\n"
                       pe.px pe.py))
        col)
    sim.pes;
  if !blocked > max_detail then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more blocked PEs\n" (!blocked - max_detail));
  if !idle > max_detail then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more idle PEs\n" (!idle - max_detail));
  Buffer.add_string buf
    (Printf.sprintf "  total: %d blocked, %d idle, of %dx%d PEs" !blocked !idle
       sim.width sim.height);
  let halted = Faults.halted_count sim.faults in
  if halted > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "\n  %d PE%s permanently halted by fault injection (enable resilience \
          to degrade gracefully past them)"
         halted
         (if halted = 1 then "" else "s"));
  Buffer.contents buf

(** Graceful degradation past halted PEs, run when the fabric has gone
    quiescent without finishing: every live receiver blocked on a sender
    that is permanently halted gives up after the resilience layer's
    halt timeout — the pending send is marked skipped (receivers then
    substitute zeroes and taint themselves at delivery) and any PE
    parked on it is woken.  Returns whether anything new was marked; the
    drivers alternate run / degrade rounds until either everything
    finishes or degradation stops making progress (a true deadlock).
    Without resilience (or with no injector) this is a no-op and the
    quiescent fabric is reported as deadlocked, as in the seed.
    [notify] overrides where wakes are delivered: the parallel driver
    passes a broadcast into its per-strip schedulers, since that is
    where the receivers are parked. *)
let degrade ?notify (sim : t) : bool =
  let notify =
    match notify with
    | Some f -> f
    | None -> fun k -> ignore (Sched.notify sim.sched k)
  in
  let f = sim.faults in
  if not (Faults.enabled f) then false
  else
    match (Faults.config f).resilience with
    | None -> false
    | Some r ->
        let marked = ref false in
        Array.iter
          (fun col ->
            Array.iter
              (fun pe ->
                if
                  (not pe.finished)
                  && not (Faults.is_halted f ~x:pe.px ~y:pe.py)
                then
                  match pe.waiting with
                  | None -> ()
                  | Some w ->
                      List.iter
                        (fun (sx, sy) ->
                          if Faults.is_halted f ~x:sx ~y:sy then begin
                            Faults.skip_send f ~apply:w.w_cfg.apply_id
                              ~seq:w.w_seq ~x:sx ~y:sy;
                            Faults.locked f (fun () ->
                                let st = Faults.stats f in
                                st.halt_timeouts <- st.halt_timeouts + 1;
                                st.recovery_cycles <-
                                  st.recovery_cycles
                                  +. r.Faults.halt_timeout_cycles);
                            trace_fault sim pe ~name:"halt-timeout"
                              (w.w_registered_at +. r.Faults.halt_timeout_cycles);
                            marked := true;
                            notify (w.w_cfg.apply_id, w.w_seq, sx, sy)
                          end)
                        (missing_senders sim pe w))
              col)
          sim.pes;
        !marked

(** {2 Drivers} *)

type driver = Polling | Event_driven | Parallel of int

(** The seed driver: rescan every PE of the grid each round until no PE
    makes progress.  Kept for scheduler-equivalence testing and the
    [sched] microbenchmark; the event-driven driver below is the default. *)
let run_polling ~(max_rounds : int) (sim : t) : unit =
  let rounds = ref 0 in
  let rec drive () =
    let any = ref true in
    while (not (all_done sim)) && !any do
      incr rounds;
      if !rounds > max_rounds then fail "simulation did not converge";
      any := false;
      Array.iter
        (fun col ->
          Array.iter
            (fun pe ->
              sim.sched.Sched.stats.scans <- sim.sched.Sched.stats.scans + 1;
              if step_pe sim pe then any := true)
            col)
        sim.pes
    done;
    if not (all_done sim) then
      (* quiescent but unfinished: degrade past halted PEs and rerun *)
      if degrade sim then drive ()
      else raise (Sim_error (deadlock_report sim))
  in
  drive ()

(** Scans a scheduler pre-acquires from the run's shared divergence
    budget in one atomic operation: large enough that the shared counter
    stays off the hot path, small enough (versus any realistic budget of
    [max_rounds * width * height]) that the guard still trips within a
    sliver of the sequential bound. *)
let budget_batch = 256

(** Charge one PE scan against the run-wide budget shared by every
    strip of the parallel driver (and trivially owned by the sequential
    event driver).  Refills the scheduler's local quota in batches so a
    livelocked program fails at (essentially) the same scan bound under
    every driver, instead of each strip separately enjoying the whole
    grid's allowance. *)
let charge_scan (s : Sched.t) (budget : int Atomic.t) : unit =
  if s.Sched.quota <= 0 then begin
    if Atomic.fetch_and_add budget (-budget_batch) <= 0 then
      fail "simulation did not converge";
    s.Sched.quota <- budget_batch
  end;
  s.Sched.quota <- s.Sched.quota - 1

(** Pop runnable PEs off [sim]'s ready ring until it drains; a PE that
    blocks on an exchange parks on the wake list of its first missing
    sender and is re-enqueued by that sender's [register_send] (see
    {!Sched}).  Shared by the event-driven driver (whole grid) and the
    parallel driver (per strip, interleaved with inbox deliveries).
    [budget] is the run-wide scan allowance; see {!charge_scan}. *)
let drain_ready ~(budget : int Atomic.t) (sim : t) : unit =
  let s = sim.sched in
  let width = sim.width in
  let rec loop () =
    let idx = Sched.pop s in
    if idx >= 0 then begin
      let x = idx mod width and y = idx / width in
      let pe = sim.pes.(x).(y) in
      s.Sched.stats.scans <- s.Sched.stats.scans + 1;
      charge_scan s budget;
      ignore (step_pe sim pe);
      let halted =
        Faults.enabled sim.faults && Faults.is_halted sim.faults ~x ~y
      in
      if (not pe.finished) && not halted then begin
        match pe.waiting with
        | Some w -> (
            match missing_senders sim pe w with
            | (sx, sy) :: _ ->
                trace_instant sim pe ~cat:"sched" ~name:"park" pe.clock;
                Sched.park s (w.w_cfg.apply_id, w.w_seq, sx, sy) idx
            | [] ->
                (* all senders landed between the readiness check and
                   here; cannot normally happen, but never strand it *)
                Sched.enqueue s x y)
        | None ->
            (* no pending exchange: runnable iff tasks remain (step_pe
               drains them, so this is defensive); otherwise the PE is
               terminally idle and is diagnosed at the end *)
            if pe.task_queue <> [] then Sched.enqueue s x y
      end;
      loop ()
    end
  in
  loop ()

(** Event-driven driver.  Execution order differs from the polling
    driver but per-PE results are identical: a PE's behaviour depends
    only on its own state and on send records, which are immutable once
    registered. *)
let run_event ~(max_rounds : int) (sim : t) : unit =
  (* same divergence guard as the polling driver: it allowed up to
     [max_rounds] whole-grid rescans *)
  let budget = Atomic.make (max_rounds * sim.width * sim.height) in
  Array.iter
    (fun col -> Array.iter (fun pe -> Sched.enqueue sim.sched pe.px pe.py) col)
    sim.pes;
  let rec drive () =
    drain_ready ~budget sim;
    if not (all_done sim) then
      (* the queue drained but PEs are still blocked: degrade past any
         halted senders (which wakes their parked receivers) and rerun *)
      if degrade sim then drive ()
      else raise (Sim_error (deadlock_report sim))
  in
  drive ()

(** {2 Parallel driver (conservative PDES on a persistent worker pool)}

    The grid is cut into contiguous vertical strips, one per worker
    domain; each strip runs {!drain_ready} over a private view of the
    simulator — its own send table, scheduler and trace collector, while
    PE state is only ever touched by the strip that owns the PE.

    Workers are {e persistent}: [run_parallel] spawns exactly [n]
    domains once, parks them on a Mutex/Condition barrier, and releases
    them per round — each strip's scheduler, inbox and trace collector
    stay domain-resident for the whole run, and no spawn/join cost is
    paid per round.  (PR 5 spawned and joined every strip every round,
    thousands of times per run, which swamped the strip work; the
    spawn-counter regression test pins the new behaviour.)

    Cross-strip sends stream {e during} the round: a send registered
    within [reach] columns of a strip edge is pushed, by the sending
    worker, into a mutex-protected inbox of every strip the sender can
    reach ([reach] — the lookahead — is the maximum swap depth any
    communicate config uses, i.e. the farthest a wavelet travels in one
    exchange).  When a strip's ready ring drains, it takes its whole
    inbox in one lock exchange and batches it into its own send table —
    delivery is exactly-once by construction, so no per-entry membership
    probe — and keeps draining if anything woke.  A strip therefore runs
    as many exchange generations per round as its neighbours can feed
    it, instead of exactly one per barrier; the barrier only lands when
    no strip can progress without the coordinator (termination check,
    resilience degrade) — rounds are few and long rather than
    per-generation.

    Bit-identity with the sequential drivers: arrival times are
    computed from the immutable send record ([sr_chunk_ready] plus hop
    latency), never from when the record became visible, and fault
    decisions are pure site hashes — so when a record becomes visible
    (mid-round or at a barrier) shifts *when* a receiver resumes, not
    *what* it computes.  Per-PE execution sequences are therefore
    identical, and so are pe_stats, drained fields and fault reports.
    Per-strip trace collectors are folded into the caller's sink in
    strip order: span sets and timestamps match the sequential drivers
    exactly; only the within-strip emission order and the
    driver-specific "sched" park/wake instants depend on cross-domain
    timing (as park/wake instants already did versus polling). *)

(* Test-visible count of worker domains ever spawned by [run_parallel]:
   the regression test asserts one run raises it by exactly the domain
   count, however many rounds the run takes. *)
let spawn_counter : int Atomic.t = Atomic.make 0

let domains_spawned () : int = Atomic.get spawn_counter

(** Worker domains a driver actually uses on a [width]-column grid: the
    sequential drivers use none, and [Parallel n] clamps to at least one
    strip and at most one strip per column.  This is the clamp
    [run_parallel] itself applies, so JSON summaries and bench artifacts
    that report it stay truthful even for requests the CLI expanded
    ([--domains 0]) or that exceed the grid ([n > width]). *)
let effective_domains (d : driver) ~(width : int) : int =
  match d with
  | Polling | Event_driven -> 0
  | Parallel n -> max 1 (min n width)

type tile = {
  t_sim : t;  (** private view: own sends / sched / trace, shared PEs *)
  t_x0 : int;
  t_x1 : int;
  t_inbox_lock : Mutex.t;
  mutable t_inbox : (Sched.key * send_record) list;
      (** cross-strip sends posted by neighbouring workers mid-round,
          newest first; the owning strip takes the whole list in one
          lock exchange whenever its ready ring drains *)
}

let run_parallel ~(max_rounds : int) ~(domains : int) (sim : t) : unit =
  let n = effective_domains (Parallel domains) ~width:sim.width in
  if n = 1 then begin
    launch sim;
    run_event ~max_rounds sim
  end
  else begin
    let reach = sim.code.reach in
    let tiles =
      Array.init n (fun i ->
          let x0 = i * sim.width / n and x1 = (((i + 1) * sim.width) / n) - 1 in
          let t_sim =
            {
              sim with
              sends = Hashtbl.create 1024;
              x_lo = x0;
              x_hi = x1;
              sched = Sched.create ~width:sim.width ~height:sim.height;
              trace =
                (if Trace.enabled sim.trace then Trace.collector ()
                 else Trace.null);
              on_send = None;
            }
          in
          {
            t_sim;
            t_x0 = x0;
            t_x1 = x1;
            t_inbox_lock = Mutex.create ();
            t_inbox = [];
          })
    in
    (* wire the send hooks second — each needs the finished [tiles]
       array: a boundary send is pushed straight into the inbox of every
       strip within lookahead reach, so receivers can consume it in the
       same round instead of waiting for a barrier *)
    Array.iteri
      (fun i tl ->
        let x0 = tl.t_x0 and x1 = tl.t_x1 in
        let post j entry =
          let dst = tiles.(j) in
          Mutex.lock dst.t_inbox_lock;
          dst.t_inbox <- entry :: dst.t_inbox;
          Mutex.unlock dst.t_inbox_lock
        in
        let export ((_, _, sx, _) as k : Sched.key) (r : send_record) : unit =
          let entry = (k, r) in
          if x1 - sx < reach then begin
            let j = ref (i + 1) in
            while !j < n && tiles.(!j).t_x0 - sx <= reach do
              post !j entry;
              incr j
            done
          end;
          if sx - x0 < reach then begin
            let j = ref (i - 1) in
            while !j >= 0 && sx - tiles.(!j).t_x1 <= reach do
              post !j entry;
              decr j
            done
          end
        in
        tl.t_sim.on_send <- Some export)
      tiles;
    (* one shared divergence budget for the whole run: non-convergence
       fails at the same whole-grid bound as the sequential drivers,
       instead of each strip separately enjoying the full allowance *)
    let budget = Atomic.make (max_rounds * sim.width * sim.height) in
    (* take the strip's inbox in one lock exchange and batch it into its
       send table, each record with the strip's own reader count.
       Delivery is exactly-once by construction (a sender posts a record
       to each reachable strip exactly once, and the left/right sweeps
       cover disjoint strips), so there is no per-entry membership
       probe.  Returns whether any parked PE woke. *)
    let drain_inbox (tl : tile) : bool =
      Mutex.lock tl.t_inbox_lock;
      let batch = tl.t_inbox in
      tl.t_inbox <- [];
      Mutex.unlock tl.t_inbox_lock;
      let woke = ref false in
      List.iter
        (fun (k, r) ->
          store_send tl.t_sim k r;
          if Sched.notify tl.t_sim.sched k <> [] then woke := true)
        batch;
      !woke
    in
    (* a round runs as many exchange generations as neighbours can feed
       this strip: drain the ready ring, absorb whatever landed in the
       inbox meanwhile, and go again until neither side has work.  The
       barrier only lands when no strip can progress on its own. *)
    let tile_round (tl : tile) ~(first : bool) : unit =
      if first then begin
        launch_cols tl.t_sim tl.t_x0 tl.t_x1;
        for x = tl.t_x0 to tl.t_x1 do
          for y = 0 to sim.height - 1 do
            Sched.enqueue tl.t_sim.sched x y
          done
        done
      end;
      let continue_ = ref true in
      while !continue_ do
        drain_ready ~budget tl.t_sim;
        continue_ := drain_inbox tl
      done
    in
    (* persistent worker pool: [n] domains spawned once for the whole
       run and parked on a Mutex/Condition barrier between rounds — a
       round is released by bumping [epoch] and is over when every
       worker has checked back in.  Strip state (scheduler, inbox,
       trace collector) stays domain-resident; nothing is spawned or
       joined per round. *)
    let pool_lock = Mutex.create () in
    let work_ready = Condition.create () in
    let round_done = Condition.create () in
    let epoch = ref 0 in
    let running = ref 0 in
    let stop = ref false in
    let failures : exn option array = Array.make n None in
    let worker i () =
      let tl = tiles.(i) in
      let seen = ref 0 in
      let live = ref true in
      while !live do
        Mutex.lock pool_lock;
        while !epoch = !seen && not !stop do
          Condition.wait work_ready pool_lock
        done;
        if !stop then begin
          Mutex.unlock pool_lock;
          live := false
        end
        else begin
          seen := !epoch;
          Mutex.unlock pool_lock;
          (try tile_round tl ~first:(!seen = 1)
           with e -> failures.(i) <- Some e);
          Mutex.lock pool_lock;
          decr running;
          if !running = 0 then Condition.signal round_done;
          Mutex.unlock pool_lock
        end
      done
    in
    let pool =
      Array.init n (fun i ->
          Atomic.incr spawn_counter;
          Domain.spawn (worker i))
    in
    let shutdown () =
      Mutex.lock pool_lock;
      stop := true;
      Condition.broadcast work_ready;
      Mutex.unlock pool_lock;
      Array.iter Domain.join pool
    in
    (* release one round and wait for the barrier; worker failures are
       re-raised lowest strip first, deterministically *)
    let round () : unit =
      Mutex.lock pool_lock;
      running := n;
      incr epoch;
      Condition.broadcast work_ready;
      while !running > 0 do
        Condition.wait round_done pool_lock
      done;
      Mutex.unlock pool_lock;
      Array.iter (function Some e -> raise e | None -> ()) failures
    in
    let pending () =
      Array.exists
        (fun tl ->
          (not (Sched.is_empty tl.t_sim.sched))
          ||
          (Mutex.lock tl.t_inbox_lock;
           let nonempty = tl.t_inbox <> [] in
           Mutex.unlock tl.t_inbox_lock;
           nonempty))
        tiles
    in
    (* driver-level profiling: one counter sample per barrier under
       [Trace.driver_pid], timestamped by round number and sampled with
       every worker parked *)
    let round_idx = ref 0 in
    let trace_round () =
      if Trace.enabled sim.trace then begin
        let ready = ref 0 in
        Array.iter (fun tl -> ready := !ready + tl.t_sim.sched.Sched.count) tiles;
        Trace.counter sim.trace ~pid:Trace.driver_pid ~tid:0 ~name:"round"
          ~values:[ ("ready_backlog", float_of_int !ready) ]
          (float_of_int !round_idx)
      end
    in
    let rec rounds () : unit =
      round ();
      incr round_idx;
      trace_round ();
      if pending () then rounds ()
    in
    (* global diagnostics (all_done / degrade / deadlock_report) run on
       the caller's view, which needs every strip's unconsumed sends: a
       record every strip has released is gone from the merge too *)
    let merge_sends () =
      Hashtbl.reset sim.sends;
      Array.iter
        (fun tl ->
          Hashtbl.iter (fun k r -> Hashtbl.replace sim.sends k r) tl.t_sim.sends)
        tiles
    in
    let notify_tiles k =
      Array.iter (fun tl -> ignore (Sched.notify tl.t_sim.sched k)) tiles
    in
    let rec finish () =
      merge_sends ();
      if not (all_done sim) then
        if degrade ~notify:notify_tiles sim then begin
          rounds ();
          finish ()
        end
        else raise (Sim_error (deadlock_report sim))
    in
    Fun.protect ~finally:shutdown (fun () ->
        if Trace.enabled sim.trace then begin
          Trace.name_process sim.trace ~pid:Trace.driver_pid "driver";
          Trace.name_track sim.trace ~pid:Trace.driver_pid ~tid:0
            "parallel rounds"
        end;
        rounds ();
        finish ());
    (* fold per-strip observations into the caller's view: traces merged
       in strip order (deterministic), scheduler counters summed *)
    if Trace.enabled sim.trace then
      Trace.merge_into ~into:sim.trace
        (Array.to_list (Array.map (fun tl -> tl.t_sim.trace) tiles));
    let mst = sim.sched.Sched.stats in
    Array.iter
      (fun tl ->
        let st = Sched.stats tl.t_sim.sched in
        mst.Sched.scans <- mst.Sched.scans + st.Sched.scans;
        mst.Sched.probes <- mst.Sched.probes + st.Sched.probes;
        mst.Sched.wakeups <- mst.Sched.wakeups + st.Sched.wakeups;
        mst.Sched.parks <- mst.Sched.parks + st.Sched.parks;
        if st.Sched.max_queue_depth > mst.Sched.max_queue_depth then
          mst.Sched.max_queue_depth <- st.Sched.max_queue_depth;
        if st.Sched.max_live_sends > mst.Sched.max_live_sends then
          mst.Sched.max_live_sends <- st.Sched.max_live_sends)
      tiles
  end

(** Short name for reports and JSON summaries; the domain count of
    [Parallel] is reported separately by its consumers. *)
let driver_name = function
  | Polling -> "polling"
  | Event_driven -> "event"
  | Parallel _ -> "parallel"

(** Domain count a driver asks for (0 for the sequential drivers). *)
let driver_domains = function
  | Polling | Event_driven -> 0
  | Parallel n -> n

(** Drive until every PE unblocks the command stream. *)
let run_to_completion ?max_rounds ?(driver = Event_driven) (sim : t) : unit =
  let max_rounds =
    match max_rounds with Some r -> r | None -> sim.machine.sim_max_rounds
  in
  match driver with
  | Polling ->
      launch sim;
      run_polling ~max_rounds sim
  | Event_driven ->
      launch sim;
      run_event ~max_rounds sim
  | Parallel domains -> run_parallel ~max_rounds ~domains sim

(** Scheduler counters of the last run. *)
let sched_stats (sim : t) : Sched.stats = Sched.stats sim.sched

(** Fault and recovery counters of the last run (all zero with the null
    injector). *)
let fault_stats (sim : t) : Faults.stats = Faults.stats sim.faults

(** Per-PE validity mask, indexed [x][y]: false where the PE halted or
    consumed substituted / unrecoverable data (directly or transitively
    through a tainted neighbour's send).  All-true with the null
    injector. *)
let validity (sim : t) : bool array array =
  Array.init sim.width (fun x ->
      Array.init sim.height (fun y ->
          not
            (Faults.is_halted sim.faults ~x ~y
            || Faults.is_tainted sim.faults ~x ~y)))

(** Wall-clock of the slowest PE, in cycles and seconds. *)
let elapsed_cycles (sim : t) : float =
  Array.fold_left
    (fun acc col -> Array.fold_left (fun acc pe -> Float.max acc pe.clock) acc col)
    0.0 sim.pes

let elapsed_seconds (sim : t) : float = elapsed_cycles sim /. sim.machine.clock_hz

(** Per-PE cycle accounts in the shape the trace aggregation consumes
    (row-major: y varies fastest within a column of constant x). *)
let pe_summaries (sim : t) : Wsc_trace.Aggregate.pe_summary list =
  let acc = ref [] in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          acc :=
            {
              Wsc_trace.Aggregate.ps_x = pe.px;
              ps_y = pe.py;
              ps_compute = pe.stats.compute_cycles;
              ps_send = pe.stats.send_cycles;
              ps_wait = pe.stats.wait_cycles;
              ps_clock = pe.clock;
              ps_tasks = pe.stats.task_activations;
            }
            :: !acc)
        col)
    sim.pes;
  List.rev !acc

(** Aggregate statistics over all PEs. *)
let total_stats (sim : t) : pe_stats =
  let acc =
    {
      compute_cycles = 0.0;
      send_cycles = 0.0;
      wait_cycles = 0.0;
      task_activations = 0;
      flops = 0.0;
      elems_sent = 0;
      elems_drained = 0;
      mem_bytes = 0.0;
    }
  in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          acc.compute_cycles <- acc.compute_cycles +. pe.stats.compute_cycles;
          acc.send_cycles <- acc.send_cycles +. pe.stats.send_cycles;
          acc.wait_cycles <- acc.wait_cycles +. pe.stats.wait_cycles;
          acc.task_activations <- acc.task_activations + pe.stats.task_activations;
          acc.flops <- acc.flops +. pe.stats.flops;
          acc.elems_sent <- acc.elems_sent + pe.stats.elems_sent;
          acc.elems_drained <- acc.elems_drained + pe.stats.elems_drained;
          acc.mem_bytes <- acc.mem_bytes +. pe.stats.mem_bytes)
        col)
    sim.pes;
  acc
