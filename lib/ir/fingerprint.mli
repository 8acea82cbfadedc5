(** Stable content hashing of modules — the identity half of the compile
    service's content-addressed cache key.

    A module's fingerprint is the digest of its canonical textual form:
    the {!Printer} output.  Because print→parse→print is a fixpoint
    (enforced continuously by the hardening oracle and the property
    tests), comments, whitespace and the numbering of value names
    collapse to one canonical string after a parse: [%7] and [%0], or
    [%u_3] and [%u_12], key alike.  Alphabetic value-name hints are part
    of the module and do reach the key — the printer writes them as
    [%<hint>_<n>] — so [%u] and [%v] key differently.  Two sources that
    parse to the same module, hints included, always fingerprint
    identically, across processes and OCaml versions. *)

(** Hex digest (MD5, 32 lowercase hex chars) of a byte string.  Stable
    across runs and platforms — unlike [Hashtbl.hash], which is neither
    guaranteed across versions nor wide enough for an address space. *)
val digest_hex : string -> string

(** [op m] — digest of the canonical printed form of [m]. *)
val op : Ir.op -> string

(** [source ~extra s] — parse [s], print the resulting module back into
    canonical form, and digest that together with [extra] (the pipeline
    configuration string, see [Pipeline.options_to_string]).  Raises
    {!Parser.Parse_error} on malformed input.  Returns the key and the
    canonical text (callers cache the latter's length as a stat). *)
val source : extra:string -> string -> string * string
