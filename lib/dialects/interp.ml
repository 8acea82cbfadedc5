(** Sequential reference interpreter.

    Executes modules built from the [func]/[scf]/[arith]/[stencil]/[tensor]/
    [varith]/[dmp] dialects with the mathematical (single-address-space)
    semantics the paper starts from.  It is the correctness oracle: the
    compiled WSE program, executed on the fabric simulator, must produce
    point-wise identical grids. *)

open Wsc_ir.Ir

type grid = { gbounds : (int * int) list; gelt : typ; gdata : float array }
(** A stencil grid: bounds per dimension, flattened row-major data.  When
    [gelt] is a tensor (after tensorization), the innermost tensor extent
    is folded into the flattened layout. *)

type rtvalue =
  | Rfloat of float
  | Rint of int
  | Rgrid of grid
  | Rtensor of float array

exception Interp_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

(** {1 Grid helpers} *)


let tensor_extent (elt : typ) : int =
  match elt with Tensor ([ n ], _) -> n | Tensor _ -> fail "grid: bad tensor elt" | _ -> 1

let grid_total_size (bounds : (int * int) list) (elt : typ) : int =
  List.fold_left (fun acc (lb, ub) -> acc * (ub - lb)) 1 bounds * tensor_extent elt

let make_grid (bounds : (int * int) list) (elt : typ) : grid =
  { gbounds = bounds; gelt = elt; gdata = Array.make (grid_total_size bounds elt) 0.0 }

let grid_of_typ = function
  | Temp (b, e) | Field (b, e) -> make_grid b e
  | t -> fail "not a grid type: %s" (Wsc_ir.Printer.typ_to_string t)

(** Flattened index of point [idx] (absolute coordinates within bounds). *)
let flat_index g (idx : int list) : int =
  let rec go bounds idx acc =
    match (bounds, idx) with
    | [], [] -> acc
    | (lb, ub) :: bs, i :: is ->
        if i < lb || i >= ub then fail "grid index %d out of [%d,%d)" i lb ub;
        go bs is ((acc * (ub - lb)) + (i - lb))
    | _ -> fail "grid index rank mismatch"
  in
  go g.gbounds idx 0

let grid_get_scalar g idx = g.gdata.(flat_index g idx)
let grid_set_scalar g idx v = g.gdata.(flat_index g idx) <- v

(** Read the element (scalar or z-column tensor) at point [idx]. *)
let grid_get g idx : rtvalue =
  let z = tensor_extent g.gelt in
  if z = 1 then Rfloat (grid_get_scalar g idx)
  else begin
    let base = flat_index g idx * z in
    Rtensor (Array.sub g.gdata base z)
  end

let grid_set g idx (v : rtvalue) : unit =
  let z = tensor_extent g.gelt in
  match v with
  | Rfloat f when z = 1 -> grid_set_scalar g idx f
  | Rtensor a when Array.length a = z ->
      let base = flat_index g idx * z in
      Array.blit a 0 g.gdata base z
  | Rfloat _ -> fail "grid_set: scalar into tensor grid"
  | Rtensor a -> fail "grid_set: tensor size %d, grid elt %d" (Array.length a) z
  | _ -> fail "grid_set: bad value"

let copy_grid g = { g with gdata = Array.copy g.gdata }

(** All points of [bounds] in row-major order. *)
let iter_points (bounds : (int * int) list) (f : int list -> unit) : unit =
  let rec go prefix = function
    | [] -> f (List.rev prefix)
    | (lb, ub) :: rest ->
        for i = lb to ub - 1 do
          go (i :: prefix) rest
        done
  in
  go [] bounds

(** {1 Value environment} *)

type env = { vals : (int, rtvalue) Hashtbl.t }

let new_env () = { vals = Hashtbl.create 64 }

let bind env (v : value) (r : rtvalue) = Hashtbl.replace env.vals v.vid r

let lookup env (v : value) : rtvalue =
  match Hashtbl.find_opt env.vals v.vid with
  | Some r -> r
  | None -> fail "unbound SSA value %%%d" v.vid

let as_float = function
  | Rfloat f -> f
  | Rint i -> float_of_int i
  | _ -> fail "expected scalar float"

let as_int = function
  | Rint i -> i
  | Rfloat f -> int_of_float f
  | _ -> fail "expected integer"

let as_grid = function Rgrid g -> g | _ -> fail "expected grid"
let as_tensor = function
  | Rtensor a -> a
  | Rfloat f -> [| f |]
  | _ -> fail "expected tensor"

(** Elementwise float operation, rank-polymorphic. *)
let elementwise2 (f : float -> float -> float) (a : rtvalue) (b : rtvalue) : rtvalue =
  match (a, b) with
  | Rfloat x, Rfloat y -> Rfloat (f x y)
  | Rtensor x, Rtensor y ->
      if Array.length x <> Array.length y then
        fail "elementwise: tensor sizes %d vs %d" (Array.length x) (Array.length y);
      Rtensor (Array.mapi (fun i xi -> f xi y.(i)) x)
  | Rtensor x, Rfloat y -> Rtensor (Array.map (fun xi -> f xi y) x)
  | Rfloat x, Rtensor y -> Rtensor (Array.map (fun yi -> f x yi) y)
  | _ -> fail "elementwise: bad operands"

(** {1 Staged [stencil.apply]}

    An apply body is straight-line code evaluated at every point of the
    compute bounds.  Each time an apply executes, its body is compiled
    once into an array of closures, each of which runs one op over a
    whole {e row} of points in a single [for] loop.  The row is the
    innermost compute dimension when the body holds only scalars (the
    3-D reference, z = 450–900 at paper sizes); otherwise (tensor
    elements after tensorization) it is one point, and a tensor value's
    own elements make the loop.  A float value is a strided view of a
    row ({!view}): a stride-0 broadcast for constants, values from
    outside the body and per-point scalars; a buffer allocated at staging
    for an op's result; for [stencil.access], the input grid itself at the
    row base plus an offset fixed at staging.  The point loop walks only
    the outer dimensions and keeps one row base per grid, so it does no
    lookups and allocates nothing.  Each element sees the float operations
    the value semantics prescribe, in the same order, so results are
    bit-identical to evaluating the body point by point. *)

type binop = Add | Sub | Mul | Div

(** A grid the body reads or the apply writes, with its row-major
    element strides (a tensor element type folds into the last one). *)
type sgrid = { grid : grid; gix : int; lbs : int array; strides : int array }

(** A float value of the body: element [i] of the current row is
    [arr.(base.(k) + off + (i * stride))], where [base.(k)] is grid [k]'s
    row base (a [k] past every grid reads a constant 0) and [stride] is 1,
    or 0 for a broadcast.  [len] is the value's type: [-1] a scalar, else
    a tensor of [len] elements. *)
type view = { arr : float array; k : int; off : int; stride : int; len : int }

(** Where an SSA value of the body lives while the rows run. *)
type slot =
  | Sview of view
  | Sint of int  (** index values are constants of the staging *)
  | Sgrid of grid

let strides_of (g : grid) : int array =
  let b = Array.of_list g.gbounds in
  let n = Array.length b in
  let s = Array.make n (tensor_extent g.gelt) in
  for d = n - 2 downto 0 do
    s.(d) <- s.(d + 1) * (snd b.(d + 1) - fst b.(d + 1))
  done;
  s

let bounds_to_string (b : (int * int) list) =
  "[" ^ String.concat ", " (List.map (fun (lb, ub) -> Printf.sprintf "%d..%d" lb ub) b) ^ "]"

(** The checks [flat_index] makes at every point, made once for a whole
    region: the same rank, and [bounds] shifted by [off] inside [inner]. *)
let check_inside ~what (bounds : (int * int) list) (off : int list) (inner : (int * int) list) =
  if List.length off <> List.length inner then fail "%s: grid index rank mismatch" what;
  List.iter2
    (fun ((lo, hi), d) (lb, ub) ->
      if lo + d < lb || hi - 1 + d >= ub then
        fail "%s: bounds %s shifted by [%s] leave grid bounds %s" what (bounds_to_string bounds)
          (String.concat ", " (List.map string_of_int off))
          (bounds_to_string inner))
    (List.combine bounds off) inner

(** [stencil.store]: copy [src] into the same points of [dst], one
    contiguous run per innermost row. *)
let store_grid (src : grid) (dst : grid) : unit =
  if List.for_all (fun (lb, ub) -> lb < ub) src.gbounds then begin
    let z = tensor_extent src.gelt and zd = tensor_extent dst.gelt in
    if z <> zd then
      if z = 1 then fail "grid_set: scalar into tensor grid"
      else fail "grid_set: tensor size %d, grid elt %d" z zd;
    check_inside ~what:"stencil.store" src.gbounds (List.map (fun _ -> 0) src.gbounds)
      dst.gbounds;
    let sb = Array.of_list src.gbounds and db = Array.of_list dst.gbounds in
    let ss = strides_of src and ds = strides_of dst in
    let n = Array.length sb in
    let rec go d so dof =
      let lb, ub = sb.(d) in
      let dof = dof + ((lb - fst db.(d)) * ds.(d)) in
      if d = n - 1 then Array.blit src.gdata so dst.gdata dof ((ub - lb) * z)
      else
        for i = 0 to ub - lb - 1 do
          go (d + 1) (so + (i * ss.(d))) (dof + (i * ds.(d)))
        done
    in
    if n = 0 then Array.blit src.gdata 0 dst.gdata 0 z else go 0 0 0
  end

(** [dst.(i) <- a_i op b_i] for the [n] elements of a row.  Each
    operand's offset, and a broadcast operand's value, is read once per
    row, so the loop body is one float operation. *)
let row_binop op n (base : int array) (dst : float array) a b : unit -> unit =
  let { arr = x; k = ka; off = oa; _ } = a and { arr = y; k = kb; off = ob; _ } = b in
  let bx = n > 1 && a.stride = 0 and by = n > 1 && b.stride = 0 in
  match op with
  | Add when bx -> fun () -> let c = x.(base.(ka) + oa) and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- c +. y.(ob + i) done
  | Add when by -> fun () -> let oa = base.(ka) + oa and c = y.(base.(kb) + ob) in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) +. c done
  | Add -> fun () -> let oa = base.(ka) + oa and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) +. y.(ob + i) done
  | Sub when bx -> fun () -> let c = x.(base.(ka) + oa) and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- c -. y.(ob + i) done
  | Sub when by -> fun () -> let oa = base.(ka) + oa and c = y.(base.(kb) + ob) in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) -. c done
  | Sub -> fun () -> let oa = base.(ka) + oa and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) -. y.(ob + i) done
  | Mul when bx -> fun () -> let c = x.(base.(ka) + oa) and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- c *. y.(ob + i) done
  | Mul when by -> fun () -> let oa = base.(ka) + oa and c = y.(base.(kb) + ob) in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) *. c done
  | Mul -> fun () -> let oa = base.(ka) + oa and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) *. y.(ob + i) done
  | Div when bx -> fun () -> let c = x.(base.(ka) + oa) and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- c /. y.(ob + i) done
  | Div when by -> fun () -> let oa = base.(ka) + oa and c = y.(base.(kb) + ob) in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) /. c done
  | Div -> fun () -> let oa = base.(ka) + oa and ob = base.(kb) + ob in
      for i = 0 to n - 1 do dst.(i) <- x.(oa + i) /. y.(ob + i) done

(** Write the [n] elements of [src]'s row to [dst] from offset
    [base.(k) + off]: one blit, or one fill for a broadcast. *)
let row_copy n (base : int array) src (dst, k, off) : unit -> unit =
  let { arr = s; k = ks; off = os; stride; _ } = src in
  if stride = 1 then fun () -> Array.blit s (base.(ks) + os) dst (base.(k) + off) n
  else fun () -> Array.fill dst (base.(k) + off) n s.(base.(ks) + os)

(** Execute one [stencil.apply] with Dirichlet semantics: each output
    grid starts as a copy of the first input grid when shapes agree, then
    the compute region is overwritten.  Outputs are always fresh grids
    and never alias an input, so the rows may read the inputs in place
    while the outputs are written. *)
let run_apply (env : env) (o : op) : rtvalue list =
  let body = Stencil.apply_body o in
  if List.length body.bargs <> List.length o.operands then
    fail "stencil.apply: %d block args for %d operands" (List.length body.bargs)
      (List.length o.operands);
  let inputs = List.map (lookup env) o.operands in
  let elt_of = function Temp (_, e) | Field (_, e) -> e | t -> t in
  let out_grids =
    List.map
      (fun r ->
        match inputs with
        | Rgrid g :: _
          when g.gbounds = bounds_of r.vtyp
               && tensor_extent g.gelt = tensor_extent (elt_of r.vtyp) ->
            copy_grid g
        | _ -> grid_of_typ r.vtyp)
      o.results
  in
  let cb = Stencil.compute_bounds o in
  (* no point runs in an empty region, so no access can fail *)
  let live = List.for_all (fun (lb, ub) -> lb < ub) cb in
  let rank = List.length cb in
  (* the row is the innermost compute dimension when the grids and every
     value of the body are scalars, else a single point *)
  let scalar t = match elt_of t with Tensor _ -> false | _ -> true in
  let over_rows =
    rank > 0
    && List.for_all (fun g -> tensor_extent g.gelt = 1) out_grids
    && List.for_all
         (function Rgrid g -> tensor_extent g.gelt = 1 | Rtensor _ -> false | _ -> true)
         inputs
    && List.for_all
         (fun op -> List.for_all (fun v -> scalar v.vtyp) (op.operands @ op.results))
         body.bops
  in
  let outer = if over_rows then rank - 1 else rank in
  let row_lo, row_hi = if over_rows then List.nth cb outer else (0, 1) in
  let width = max 0 (row_hi - row_lo) in
  (* every grid comes from a block arg, an op operand or an output: this
     bounds the grid count; index [cap] is the constant-0 base *)
  let cap =
    List.fold_left
      (fun n op -> n + List.length op.operands)
      (List.length body.bargs + List.length o.results)
      body.bops
  in
  let grids = ref [] in
  let index g =
    match List.find_opt (fun sg -> sg.grid == g) !grids with
    | Some sg -> sg
    | None ->
        let lbs = Array.of_list (List.map fst g.gbounds) in
        let sg = { grid = g; gix = List.length !grids; lbs; strides = strides_of g } in
        grids := sg :: !grids;
        sg
  in
  (* offset of the row's first point within a grid's outer row base *)
  let row_start sg =
    if over_rows && live then (row_lo - sg.lbs.(outer)) * sg.strides.(outer) else 0
  in
  (* [lvl.(d)]: flat offset of the current row's first [d] coordinates
     in each grid; the closures read the full row base, [lvl.(outer)] *)
  let lvl = Array.init (outer + 1) (fun _ -> Array.make (cap + 1) 0) in
  let base = lvl.(outer) in
  let own ?(len = -1) arr = { arr; k = cap; off = 0; stride = 1; len } in
  let of_rt = function
    | Rfloat f -> Sview { (own [| f |]) with stride = 0 }
    | Rint i -> Sint i
    | Rtensor a -> Sview (own ~len:(Array.length a) a)
    | Rgrid g -> Sgrid g
  in
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 64 in
  List.iter2 (fun a v -> Hashtbl.replace slots a.vid (of_rt v)) body.bargs inputs;
  let slot (v : value) =
    match Hashtbl.find_opt slots v.vid with
    | Some s -> s
    | None ->
        let s = of_rt (lookup env v) in
        Hashtbl.replace slots v.vid s;
        s
  in
  let prog = ref [] in
  let emit f = prog := f :: !prog in
  let view = function Sview v -> v | _ -> fail "elementwise: bad operands" in
  let binop op a b =
    let a = view a and b = view b in
    if a.len >= 0 && b.len >= 0 && a.len <> b.len then
      fail "elementwise: tensor sizes %d vs %d" a.len b.len;
    let len = max a.len b.len in
    (* a scalar result is a broadcast when both operands are *)
    let n = if len >= 0 then len else if a.stride = 0 && b.stride = 0 then 1 else width in
    let dst = Array.make n 0.0 in
    emit (row_binop op n base dst a b);
    Sview { (own ~len dst) with stride = (if len < 0 && n = 1 then 0 else 1) }
  in
  (* a tensor operand and its length; a scalar is a 1-tensor *)
  let tensor_view = function
    | Sview v -> (v, if v.len < 0 then 1 else v.len)
    | _ -> fail "expected tensor"
  in
  let stage (op : op) : slot option =
    match op.opname with
    | "arith.constant" -> (
        match (attr op "value", (result op).vtyp) with
        | Some (Float_attr f), Tensor ([ n ], _) -> Some (Sview (own ~len:n (Array.make n f)))
        | Some (Float_attr f), _ -> Some (of_rt (Rfloat f))
        | Some (Int_attr i), (Index | I16 | I32 | I64) -> Some (Sint i)
        | Some (Int_attr i), _ -> Some (of_rt (Rfloat (float_of_int i)))
        | _ -> fail "arith.constant: bad value")
    | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
        let k =
          match op.opname with
          | "arith.addf" -> Add
          | "arith.subf" -> Sub
          | "arith.mulf" -> Mul
          | _ -> Div
        in
        Some (binop k (slot (operand op 0)) (slot (operand op 1)))
    | "varith.add" | "varith.mul" -> (
        let k = if op.opname = "varith.add" then Add else Mul in
        match List.map slot op.operands with
        | v :: vs -> Some (List.fold_left (binop k) v vs)
        | [] -> fail "%s: no operands" op.opname)
    | "stencil.access" ->
        let sg = match slot (operand op 0) with Sgrid g -> index g | _ -> fail "expected grid" in
        let off = dense_ints_exn op "offset" in
        if live then begin
          if List.length off <> rank then
            fail "stencil.access: offset rank %d at point rank %d" (List.length off) rank;
          check_inside ~what:"stencil.access" cb off sg.grid.gbounds
        end;
        let delta = ref (row_start sg) in
        List.iteri
          (fun d x -> if d < Array.length sg.strides then delta := !delta + (x * sg.strides.(d)))
          off;
        (* the input grid itself: a row of scalars, a tensor element, or
           a per-point scalar broadcast over a tensor body *)
        let z = tensor_extent sg.grid.gelt in
        let stride = if over_rows || z > 1 then 1 else 0 and len = if z = 1 then -1 else z in
        Some (Sview { arr = sg.grid.gdata; k = sg.gix; off = !delta; stride; len })
    | "tensor.empty" ->
        let n = match (result op).vtyp with Tensor ([ n ], _) -> n | _ -> 0 in
        Some (Sview (own ~len:n (Array.make n 0.0)))
    | "tensor.extract_slice" ->
        let src, n = tensor_view (slot (operand op 0)) in
        let off = int_attr_exn op "offset" and size = int_attr_exn op "size" in
        if off < 0 || size < 0 || off + size > n then
          fail "tensor.extract_slice: [%d, %d) out of tensor<%d>" off (off + size) n;
        (* a view of the source, which holds this point's value until
           the next point *)
        Some (Sview { src with off = src.off + (off * src.stride); len = size })
    | "tensor.insert_slice" ->
        let src, ns = tensor_view (slot (operand op 0)) in
        let dst, nd = tensor_view (slot (operand op 1)) in
        let off =
          match slot (operand op 2) with
          | Sint i -> i
          | _ -> fail "tensor.insert_slice: offset is not an index value"
        in
        if off < 0 || off + ns > nd then
          fail "tensor.insert_slice: [%d, %d) out of tensor<%d>" off (off + ns) nd;
        let buf = Array.make nd 0.0 in
        emit (row_copy nd base dst (buf, cap, 0));
        emit (row_copy ns base src (buf, cap, off));
        Some (Sview (own ~len:nd buf))
    | "stencil.return" ->
        if List.length op.operands <> List.length out_grids then
          fail "stencil.apply: body returns %d values for %d results"
            (List.length op.operands) (List.length out_grids);
        List.iter2
          (fun g v ->
            if live then
              check_inside ~what:"stencil.apply result" cb (List.map (fun _ -> 0) cb)
                g.gbounds;
            let sg = index g and z = tensor_extent g.gelt in
            match slot v with
            | Sview s when (s.len < 0 && z = 1) || s.len = z ->
                let dst = (g.gdata, sg.gix, row_start sg) in
                emit (row_copy (if z = 1 then width else z) base s dst)
            | Sview s when s.len < 0 -> fail "grid_set: scalar into tensor grid"
            | Sview s -> fail "grid_set: tensor size %d, grid elt %d" s.len z
            | _ -> fail "grid_set: bad value")
          out_grids op.operands;
        None
    | name -> fail "interpreter: unsupported op %s" name
  in
  List.iter
    (fun op ->
      match (stage op, op.results) with
      | Some s, [ r ] -> Hashtbl.replace slots r.vid s
      | None, [] -> ()
      | _ -> fail "%s: unexpected result count" op.opname)
    body.bops;
  if not (List.exists (fun op -> op.opname = "stencil.return") body.bops) then
    fail "stencil.apply: body has no stencil.return";
  let prog = Array.of_list (List.rev !prog) in
  let grids = Array.of_list (List.rev !grids) in
  let ng = Array.length grids in
  let cb = Array.of_list cb in
  let run_row () = Array.iter (fun f -> f ()) prog in
  let rec go d =
    let lo, hi = cb.(d) and cur = lvl.(d) and next = lvl.(d + 1) in
    for i = lo to hi - 1 do
      for k = 0 to ng - 1 do
        let g = grids.(k) in
        next.(k) <- cur.(k) + ((i - g.lbs.(d)) * g.strides.(d))
      done;
      if d + 1 = outer then run_row () else go (d + 1)
    done
  in
  if live then if outer = 0 then run_row () else go 0;
  List.map (fun g -> Rgrid g) out_grids

(** {1 Interpreter} *)

type ctx = {
  module_ : op;
  env : env;
  mutable point : int list;  (** current stencil point inside an apply body *)
}

(** Extension point: dialects defined in downstream libraries (the csl
    dialects) register handlers for their ops here. *)
type handler = ctx -> op -> (ctx -> block -> rtvalue list) -> rtvalue list

let handlers : (string, handler) Hashtbl.t = Hashtbl.create 16

let register_handler name (h : handler) = Hashtbl.replace handlers name h

let rec run_block (ctx : ctx) (b : block) : rtvalue list =
  let result = ref [] in
  List.iter
    (fun o ->
      match run_op ctx o with
      | `Values vs -> List.iter2 (fun r v -> bind ctx.env r v) o.results vs
      | `Terminator vs -> result := vs)
    b.bops;
  !result

and run_op (ctx : ctx) (o : op) : [ `Values of rtvalue list | `Terminator of rtvalue list ]
    =
  let env = ctx.env in
  let operand_vals () = List.map (lookup env) o.operands in
  match o.opname with
  | "arith.constant" -> (
      match (attr o "value", (result o).vtyp) with
      | Some (Float_attr f), Tensor ([ n ], _) -> `Values [ Rtensor (Array.make n f) ]
      | Some (Float_attr f), _ -> `Values [ Rfloat f ]
      | Some (Int_attr i), (Index | I16 | I32 | I64) -> `Values [ Rint i ]
      | Some (Int_attr i), _ -> `Values [ Rfloat (float_of_int i) ]
      | _ -> fail "arith.constant: bad value")
  | "arith.addf" ->
      let a, b = (lookup env (operand o 0), lookup env (operand o 1)) in
      `Values [ elementwise2 ( +. ) a b ]
  | "arith.subf" ->
      let a, b = (lookup env (operand o 0), lookup env (operand o 1)) in
      `Values [ elementwise2 ( -. ) a b ]
  | "arith.mulf" ->
      let a, b = (lookup env (operand o 0), lookup env (operand o 1)) in
      `Values [ elementwise2 ( *. ) a b ]
  | "arith.divf" ->
      let a, b = (lookup env (operand o 0), lookup env (operand o 1)) in
      `Values [ elementwise2 ( /. ) a b ]
  | "arith.addi" ->
      `Values [ Rint (as_int (lookup env (operand o 0)) + as_int (lookup env (operand o 1))) ]
  | "arith.subi" ->
      `Values [ Rint (as_int (lookup env (operand o 0)) - as_int (lookup env (operand o 1))) ]
  | "arith.muli" ->
      `Values [ Rint (as_int (lookup env (operand o 0)) * as_int (lookup env (operand o 1))) ]
  | "arith.cmpi" ->
      let a = as_int (lookup env (operand o 0)) and b = as_int (lookup env (operand o 1)) in
      let r =
        match string_attr_exn o "predicate" with
        | "slt" -> a < b
        | "sle" -> a <= b
        | "sgt" -> a > b
        | "sge" -> a >= b
        | "eq" -> a = b
        | "ne" -> a <> b
        | p -> fail "cmpi: bad predicate %s" p
      in
      `Values [ Rint (if r then 1 else 0) ]
  | "varith.add" ->
      let vs = operand_vals () in
      `Values [ List.fold_left (elementwise2 ( +. )) (List.hd vs) (List.tl vs) ]
  | "varith.mul" ->
      let vs = operand_vals () in
      `Values [ List.fold_left (elementwise2 ( *. )) (List.hd vs) (List.tl vs) ]
  | "tensor.empty" ->
      let n = match (result o).vtyp with Tensor ([ n ], _) -> n | _ -> 0 in
      `Values [ Rtensor (Array.make n 0.0) ]
  | "memref.alloc" ->
      (* buffers at function level are zero-initialized flat arrays *)
      `Values [ Rtensor (Array.make (num_elements (result o).vtyp) 0.0) ]
  | "tensor.extract_slice" ->
      let a = as_tensor (lookup env (operand o 0)) in
      let off = int_attr_exn o "offset" and size = int_attr_exn o "size" in
      `Values [ Rtensor (Array.sub a off size) ]
  | "tensor.insert_slice" ->
      let src = as_tensor (lookup env (operand o 0)) in
      let dst = Array.copy (as_tensor (lookup env (operand o 1))) in
      let off = as_int (lookup env (operand o 2)) in
      Array.blit src 0 dst off (Array.length src);
      `Values [ Rtensor dst ]
  | "stencil.load" -> (
      match lookup env (operand o 0) with
      | Rgrid g -> `Values [ Rgrid g ]
      | _ -> fail "stencil.load: operand is not a grid")
  | "stencil.store" ->
      store_grid (as_grid (lookup env (operand o 0))) (as_grid (lookup env (operand o 1)));
      `Values []
  | "dmp.swap" ->
      (* halo exchange is the identity in single-address-space semantics *)
      `Values [ lookup env (operand o 0) ]
  | "stencil.apply" -> `Values (run_apply env o)
  | "csl_stencil.access" ->
      let g = as_grid (lookup env (operand o 0)) in
      let off = dense_ints_exn o "offset" in
      if List.length ctx.point <> List.length off then
        fail "stencil.access: offset rank %d at point rank %d" (List.length off)
          (List.length ctx.point);
      let idx = List.map2 ( + ) ctx.point off in
      `Values [ grid_get g idx ]
  | "scf.yield" | "func.return" | "csl_stencil.yield" ->
      `Terminator (operand_vals ())
  | "scf.for" ->
      let lb = as_int (lookup env (operand o 0)) in
      let ub = as_int (lookup env (operand o 1)) in
      let step = as_int (lookup env (operand o 2)) in
      let body = Scf.for_body o in
      let carried = ref (List.map (lookup env) (Scf.for_iter_inits o)) in
      let i = ref lb in
      while !i < ub do
        bind env (List.hd body.bargs) (Rint !i);
        List.iter2 (fun arg v -> bind env arg v) (List.tl body.bargs) !carried;
        carried := run_block ctx body;
        i := !i + step
      done;
      `Values !carried
  | "scf.if" ->
      let c = as_int (lookup env (operand o 0)) in
      let r = region o (if c <> 0 then 0 else 1) in
      `Values (run_block ctx (entry_block r))
  | "func.call" ->
      let callee = string_attr_exn o "callee" in
      let f =
        match Func.lookup ctx.module_ callee with
        | Some f -> f
        | None -> fail "func.call: unknown function %s" callee
      in
      `Values (call_func ctx f (operand_vals ()))
  | name -> (
      match Hashtbl.find_opt handlers name with
      | Some h -> `Values (h ctx o run_block)
      | None -> fail "interpreter: unsupported op %s" name)

and call_func (ctx : ctx) (f : op) (args : rtvalue list) : rtvalue list =
  let entry = Func.entry f in
  if List.length entry.bargs <> List.length args then
    fail "call %s: arity mismatch" (Func.name_of f);
  List.iter2 (fun p a -> bind ctx.env p a) entry.bargs args;
  run_block ctx entry

(** Run function [name] of module [m] on [args]. *)
let run_func (m : op) ~(name : string) (args : rtvalue list) : rtvalue list =
  let f =
    match Func.lookup m name with
    | Some f -> f
    | None -> fail "no function %s" name
  in
  let ctx = { module_ = m; env = new_env (); point = [] } in
  call_func ctx f args

(** {1 Grid initialization and comparison helpers} *)

(** Deterministic pseudo-random-ish init so reference and simulated runs
    agree: value depends only on the point coordinates, through a hash
    folded over them. *)
let init_step h i = (h * 31) + i + 17

let[@inline] init_of_hash h = float_of_int (((h mod 1000) + 1000) mod 1000) /. 997.0
let init_value (idx : int list) : float = init_of_hash (List.fold_left init_step 7 idx)

(** [init_value] at every element, the hash folded incrementally in
    row-major order; a z-column element's index [k] is its last
    coordinate. *)
let init_grid (g : grid) : unit =
  let z = tensor_extent g.gelt in
  let dims = if z = 1 then g.gbounds else g.gbounds @ [ (0, z) ] in
  let pos = ref 0 in
  let rec go h = function
    | [] ->
        g.gdata.(!pos) <- init_of_hash h;
        incr pos
    | (lb, ub) :: rest ->
        for i = lb to ub - 1 do
          go (init_step h i) rest
        done
  in
  go 7 dims

(** Reinterpret a 3-D scalar grid as the corresponding 2-D grid of
    z-column tensors (identical flattened layout) — used to feed the same
    initial data to a module before and after tensorization. *)
let retensorize_grid (g : grid) : grid =
  match g.gbounds with
  | [ bx; by; (zl, zu) ] ->
      { gbounds = [ bx; by ]; gelt = Tensor ([ zu - zl ], F32); gdata = Array.copy g.gdata }
  | _ -> fail "retensorize_grid: grid is not 3-D scalar"

let max_abs_diff (a : grid) (b : grid) : float =
  if Array.length a.gdata <> Array.length b.gdata then infinity
  else begin
    let m = ref 0.0 in
    Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.gdata.(i)))) a.gdata;
    !m
  end
