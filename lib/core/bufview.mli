(** Buffer views: the runtime representation shared by the bufferized-IR
    evaluator and the fabric simulator's DSD execution.  A view aliases a
    (possibly strided) slice of a backing array — what a memref subview or
    a mem1d DSD denotes on a PE. *)

type t = { data : float array; off : int; len : int; stride : int }

val of_array : float array -> t

(** @raise Invalid_argument when the view exceeds the backing array. *)
val make : float array -> off:int -> len:int -> ?stride:int -> unit -> t

(** [splat x ~len] — a read-only view of [len] copies of [x] (stride 0),
    the scalar operand of {!arith_into}. *)
val splat : float -> len:int -> t

(** Sub-view relative to [v]'s own indexing. *)
val sub : t -> off:int -> len:int -> t

val get : t -> int -> float
val set : t -> int -> float -> unit
val fill : t -> float -> unit
val to_array : t -> float array

(** @raise Invalid_argument on length mismatch (all functions below). *)
val blit : src:t -> dst:t -> unit

(** The elementwise arithmetic of the DSD builtins ([@fadds], [@fsubs],
    [@fmuls]) and of [linalg.add/sub/mul/div]. *)
type op = Add | Sub | Mul | Div

(** [arith_into op a b dst] — [dst.(i) <- a.(i) op b.(i)]; operands may
    alias [dst] (accumulator reuse relies on it).  A scalar operand on
    either side is a {!splat}. *)
val arith_into : op -> t -> t -> t -> unit

(** [fmac_into a b s dst] — [dst.(i) <- a.(i) +. b.(i) *. s], the
    semantics of CSL's [@fmacs]. *)
val fmac_into : t -> t -> float -> t -> unit
