(** Order-preserving, self-delimiting tuple encoding (FoundationDB
    tuple-layer style) — the cell format of the byte-backed tape
    devices.

    The two properties that make file-backed merge passes cheap:

    - {b order preservation}: [String.compare (pack a) (pack b)] agrees
      with {!compare_tuple}[ a b], so a k-way merge compares keys
      bytewise {e without decoding};
    - {b self-delimitation}: each element carries its own end (strings
      are 0x00-terminated with 0x00 inside escaped as 0x00 0xFF; ints
      carry their byte count in the type code), so a run file of
      concatenated encodings needs no external index — {!scan_elt}
      finds every cell boundary. *)

type elt =
  | Int of int  (** code byte [0x14 ± k], [k] big-endian payload bytes *)
  | Str of string  (** code byte [0x02], terminator-escaped, 0x00-ended *)

exception Malformed of string
(** Raised by {!unpack}/{!scan_elt} on bytes that are not a valid
    encoding (truncated element, unknown type code). *)

val pack : elt list -> string
val pack_str : string -> string
(** [pack [Str s]], in one allocation when [s] has no 0x00 byte. *)

val pack_int : int -> string
(** [pack [Int n]]. *)

val unpack : string -> elt list
(** Inverse of {!pack}. @raise Malformed on invalid input. *)

val decode_elt : string -> int -> elt * int
(** [decode_elt s pos] decodes the single element starting at [pos],
    returning it with the offset just past its encoding.
    @raise Malformed *)

val decode_str : string -> int -> string * int
(** {!decode_elt} for a [Str] element, without the [elt] box: an
    unescaped string is located with one [String.index_from] and copied
    with one [String.sub]; escaped strings fall back to {!decode_elt}.
    @raise Malformed also on an [Int] element *)

val decode_int : string -> int -> int * int
(** {!decode_elt} for an [Int] element, without the [elt] box.
    @raise Malformed also on a [Str] element *)

val scan_elt : string -> int -> int
(** [scan_elt s pos] is the offset just past the single element
    starting at [pos] — the boundary scan the sharded device uses to
    cut a run file back into cells. @raise Malformed *)

val compare_packed : string -> string -> int
(** [String.compare] — named to document that bytewise comparison of
    encodings is the intended comparison. *)

val compare_tuple : elt list -> elt list -> int
(** Value-level order; agrees with {!compare_packed} on encodings
    (a tested invariant). Strings sort below ints (their type code is
    smaller), shorter tuples below their extensions. *)

val range_prefix : elt list -> string * string
(** [range_prefix p] is the half-open byte interval [(lo, hi)] such
    that a packed tuple [t] extends [p] iff [lo <= t < hi] — prefix
    scans over sorted runs without decoding. *)

val pp_elt : Format.formatter -> elt -> unit
val pp : Format.formatter -> elt list -> unit
