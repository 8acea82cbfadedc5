(** Buffer views: the runtime representation shared by the bufferized-IR
    evaluator and the fabric simulator's DSD execution.

    A view aliases a slice of a backing array — exactly what a memref
    subview or a mem1d DSD denotes on a PE.

    The kernels below are first-order loops that hoist [data/stride],
    walk running indices and index the backing arrays directly: without
    flambda, ocamlopt neither inlines {!get}/{!set} nor specialises a
    float closure, and either costs a boxed float per element.  The array accesses stay
    bounds-checked — views built by record update ([{ v with off }])
    skip {!make}'s range check, so these checks are the only guard. *)

type t = { data : float array; off : int; len : int; stride : int }

let of_array (a : float array) : t =
  { data = a; off = 0; len = Array.length a; stride = 1 }

let make (a : float array) ~off ~len ?(stride = 1) () : t =
  if off < 0 || (len > 0 && off + ((len - 1) * stride) >= Array.length a) then
    invalid_arg
      (Printf.sprintf "Bufview: [%d, +%d x%d) out of array of %d" off len stride
         (Array.length a));
  { data = a; off; len; stride }

let splat (x : float) ~(len : int) : t = { data = [| x |]; off = 0; len; stride = 0 }

let sub (v : t) ~off ~len : t =
  make v.data ~off:(v.off + (off * v.stride)) ~len ~stride:v.stride ()

let get (v : t) i = v.data.(v.off + (i * v.stride))
let set (v : t) i x = v.data.(v.off + (i * v.stride)) <- x

let fill (v : t) (x : float) : unit =
  let d = v.data and s = v.stride in
  let j = ref v.off in
  for _ = 1 to v.len do
    d.(!j) <- x;
    j := !j + s
  done

let to_array (v : t) : float array =
  let r = Array.make v.len 0.0 in
  let d = v.data and s = v.stride in
  let j = ref v.off in
  for i = 0 to v.len - 1 do
    r.(i) <- d.(!j);
    j := !j + s
  done;
  r

let blit ~(src : t) ~(dst : t) : unit =
  if src.len <> dst.len then invalid_arg "Bufview.blit: length mismatch";
  let sd = src.data and ss = src.stride and dd = dst.data and ds = dst.stride in
  let j = ref src.off and k = ref dst.off in
  for _ = 1 to dst.len do
    dd.(!k) <- sd.(!j);
    j := !j + ss;
    k := !k + ds
  done

type op = Add | Sub | Mul | Div

(** [dst.(i) <- a.(i) op b.(i)], in ascending [i]; operands may alias
    [dst].  One loop per op tag, so the dispatch is hoisted out of the
    element loop; each loop walks running indices. *)
let arith_into (op : op) (a : t) (b : t) (dst : t) : unit =
  let n = dst.len in
  if a.len <> n || b.len <> n then invalid_arg "Bufview.arith_into: length mismatch";
  let ad = a.data and sa = a.stride and bd = b.data and sb = b.stride in
  let dd = dst.data and sd = dst.stride in
  let ia = ref a.off and ib = ref b.off and id = ref dst.off in
  match op with
  | Add ->
      for _ = 1 to n do
        dd.(!id) <- ad.(!ia) +. bd.(!ib);
        ia := !ia + sa;
        ib := !ib + sb;
        id := !id + sd
      done
  | Sub ->
      for _ = 1 to n do
        dd.(!id) <- ad.(!ia) -. bd.(!ib);
        ia := !ia + sa;
        ib := !ib + sb;
        id := !id + sd
      done
  | Mul ->
      for _ = 1 to n do
        dd.(!id) <- ad.(!ia) *. bd.(!ib);
        ia := !ia + sa;
        ib := !ib + sb;
        id := !id + sd
      done
  | Div ->
      for _ = 1 to n do
        dd.(!id) <- ad.(!ia) /. bd.(!ib);
        ia := !ia + sa;
        ib := !ib + sb;
        id := !id + sd
      done

(** Fused multiply-accumulate: [dst.(i) <- a.(i) + b.(i) * s]. *)
let fmac_into (a : t) (b : t) (s : float) (dst : t) : unit =
  let n = dst.len in
  if a.len <> n || b.len <> n then invalid_arg "Bufview.fmac_into: length mismatch";
  let ad = a.data and sa = a.stride and bd = b.data and sb = b.stride in
  let dd = dst.data and sd = dst.stride in
  let ia = ref a.off and ib = ref b.off and id = ref dst.off in
  for _ = 1 to n do
    dd.(!id) <- ad.(!ia) +. (bd.(!ib) *. s);
    ia := !ia + sa;
    ib := !ib + sb;
    id := !id + sd
  done
