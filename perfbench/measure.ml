(** Summary statistics, and the facts recorded next to every result. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile of a sorted array. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(** The percentiles a tail may be reported at, highest first. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(** The highest ladder percentile with at least 10 of [n] samples above
    its rank; 50 when there are too few samples for any. *)
let tail_percentile (n : int) : float =
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  match List.find_opt (fun p -> beyond p >= 10) tail_ladder with
  | Some p -> p
  | None -> 50.0

let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(** High-water resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () : float =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
              if String.starts_with ~prefix:"VmHWM:" line then
                Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
              else scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      (* no procfs: the OCaml heap's high-water mark is a lower bound *)
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let nproc () = Domain.recommended_domain_count ()

(** The commit of the checkout, read from [.git] when there is one. *)
let commit () : string =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          (* a packed ref: "<sha> <ref>" lines *)
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ sha; name ] when name = r -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some sha -> sha
