(** Evaluator for bufferized (memref + linalg) region bodies.

    Shared reference semantics between the post-group-3 interpreter hook
    and tests: values are buffer views, integers or grids; linalg ops
    mutate their destination views in place, exactly as DSD builtins do
    on a PE. *)

open Wsc_ir.Ir
module I = Wsc_dialects.Interp

type cell =
  | Vbuf of Bufview.t
  | Vint of int
  | Vfloat of float
  | Vgrid of I.grid

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type env = { cells : (int, cell) Hashtbl.t; mutable point : int list }

let new_env () = { cells = Hashtbl.create 64; point = [ 0; 0 ] }

let bind env (v : value) (c : cell) = Hashtbl.replace env.cells v.vid c

let lookup env (v : value) : cell =
  match Hashtbl.find_opt env.cells v.vid with
  | Some c -> c
  | None -> fail "buf_eval: unbound value %%%d" v.vid

let as_buf env v =
  match lookup env v with
  | Vbuf b -> b
  | _ -> fail "buf_eval: expected buffer"

let as_int env v =
  match lookup env v with
  | Vint i -> i
  | _ -> fail "buf_eval: expected int"

(** View of the z-column stored at [point + offset] in a grid of tensors. *)
let grid_column_view (g : I.grid) (point : int list) (offset : int list) : Bufview.t =
  let idx = List.map2 ( + ) point offset in
  let z = I.tensor_extent g.I.gelt in
  let flat = I.flat_index g idx in
  Bufview.make g.I.gdata ~off:(flat * z) ~len:z ()

(** Evaluate one block; returns the yield operands' cells. *)
let eval_block (env : env) (blk : block) : cell list =
  let yielded = ref [] in
  List.iter
    (fun o ->
      match o.opname with
      | "memref.alloc" ->
          let n = num_elements (Wsc_ir.Ir.result o).vtyp in
          bind env (result o) (Vbuf (Bufview.of_array (Array.make n 0.0)))
      | "memref.subview" ->
          let b = as_buf env (operand o 0) in
          bind env (result o)
            (Vbuf (Bufview.sub b ~off:(int_attr_exn o "offset") ~len:(int_attr_exn o "size")))
      | "memref.subview_dyn" ->
          let b = as_buf env (operand o 0) in
          let off = as_int env (operand o 1) in
          bind env (result o) (Vbuf (Bufview.sub b ~off ~len:(int_attr_exn o "size")))
      | "csl_stencil.access" -> (
          match lookup env (operand o 0) with
          | Vgrid g ->
              let off = dense_ints_exn o "offset" in
              bind env (result o) (Vbuf (grid_column_view g env.point off))
          | Vbuf b -> bind env (result o) (Vbuf b)
          | _ -> fail "csl_stencil.access: bad source")
      | "arith.constant" -> (
          match attr o "value" with
          | Some (Int_attr i) -> bind env (result o) (Vint i)
          | Some (Float_attr f) -> bind env (result o) (Vfloat f)
          | _ -> fail "buf_eval: bad constant")
      | "arith.addi" ->
          bind env (result o)
            (Vint (as_int env (operand o 0) + as_int env (operand o 1)))
      | "linalg.copy" ->
          Bufview.blit ~src:(as_buf env (operand o 0)) ~dst:(as_buf env (operand o 1))
      | "linalg.fill" ->
          Bufview.fill (as_buf env (operand o 0)) (float_attr_exn o "value")
      | ("linalg.add" | "linalg.sub" | "linalg.mul" | "linalg.div") as name ->
          let op : Bufview.op =
            match name with
            | "linalg.add" -> Add
            | "linalg.sub" -> Sub
            | "linalg.mul" -> Mul
            | _ -> Div
          in
          Bufview.arith_into op
            (as_buf env (operand o 0))
            (as_buf env (operand o 1))
            (as_buf env (operand o 2))
      | ("linalg.mul_scalar" | "linalg.add_scalar") as name ->
          let a = as_buf env (operand o 0) in
          let k = Bufview.splat (float_attr_exn o "scalar") ~len:a.Bufview.len in
          Bufview.arith_into
            (if name = "linalg.mul_scalar" then Mul else Add)
            a k
            (as_buf env (operand o 1))
      | "linalg.fmac" ->
          Bufview.fmac_into
            (as_buf env (operand o 0))
            (as_buf env (operand o 1))
            (float_attr_exn o "scalar")
            (as_buf env (operand o 2))
      | "csl_stencil.yield" -> yielded := List.map (lookup env) o.operands
      | name -> fail "buf_eval: unsupported op %s" name)
    blk.bops;
  !yielded
