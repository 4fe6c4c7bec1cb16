(* Order-preserving tuple encoding for byte-backed tape devices.

   The layout follows the FoundationDB tuple layer: every element is
   emitted with a leading type code chosen so that [String.compare] on
   the encodings agrees with the natural order on the values, and every
   element is self-delimiting, so a run file of concatenated encodings
   can be cut back into cells without an external index.

   - [Str s]  ->  0x02, escaped bytes of [s], 0x00.  A 0x00 byte inside
     [s] is escaped as 0x00 0xFF; since 0xFF can never follow a
     terminating 0x00 inside a well-formed stream, the first unescaped
     0x00 ends the element.  The escape preserves order: it maps the
     smallest byte to the smallest two-byte sequence starting with it.
   - [Int n]  ->  a code byte centred on 0x14 (zero), 0x14+k for a
     positive integer needing [k] big-endian bytes, 0x14-k for a
     negative one stored as the offset from the smallest k-byte
     negative (i.e. n + 2^(8k) - 1), so larger negatives still compare
     smaller bytewise. *)

type elt = Int of int | Str of string

let zero_code = 0x14
let str_code = 0x02
let max_int_bytes = 8

exception Malformed of string

(* [Int n] is a code byte and [int_width n] payload bytes: the bytes in
   |n|, read as an unsigned 63-bit word so that [abs min_int] (still
   [min_int]) counts as 2^62.  A negative n is stored as n + 2^(8k) - 1,
   whose k bytes are the ones' complement of |n|'s: hence the flip. *)
let int_width n =
  let k = ref 0 and a = ref (abs n) in
  while !a <> 0 do
    incr k;
    a := !a lsr 8
  done;
  !k

(* byte [i] (0 = the code byte, then 1..k) of [Int n], k = [int_width n] *)
let int_byte n k i =
  if i = 0 then Char.unsafe_chr (if n < 0 then zero_code - k else zero_code + k)
  else
    let flip = if n < 0 then 0xff else 0 in
    Char.unsafe_chr ((abs n lsr (8 * (k - i))) land 0xff lxor flip)

let pack_int n =
  let k = int_width n in
  let b = Bytes.create (k + 1) in
  for i = 0 to k do
    Bytes.set b i (int_byte n k i)
  done;
  Bytes.unsafe_to_string b

let add_elt buf = function
  | Str s ->
      Buffer.add_char buf (Char.chr str_code);
      String.iter
        (fun c ->
          Buffer.add_char buf c;
          if c = '\x00' then Buffer.add_char buf '\xFF')
        s;
      Buffer.add_char buf '\x00'
  | Int n ->
      let k = int_width n in
      for i = 0 to k do
        Buffer.add_char buf (int_byte n k i)
      done

let pack elts =
  let buf = Buffer.create 32 in
  List.iter (add_elt buf) elts;
  Buffer.contents buf

(* The common string has no 0x00 byte, so nothing needs escaping and
   the element is one allocation; the escaping [pack] is the fallback. *)
let pack_str s =
  if String.contains s '\x00' then pack [ Str s ]
  else begin
    let n = String.length s in
    let b = Bytes.create (n + 2) in
    Bytes.set b 0 (Char.chr str_code);
    Bytes.blit_string s 0 b 1 n;
    Bytes.set b (n + 1) '\x00';
    Bytes.unsafe_to_string b
  end

(* [scan_elt s pos] is the offset just past the element starting at
   [pos] — the self-delimiting property as a function. *)
let scan_elt s pos =
  if pos >= String.length s then raise (Malformed "scan_elt: past end");
  let code = Char.code s.[pos] in
  if code = str_code then begin
    let n = String.length s in
    let i = ref (pos + 1) in
    let stop = ref (-1) in
    while !stop < 0 do
      if !i >= n then raise (Malformed "unterminated string element");
      if s.[!i] = '\x00' then
        if !i + 1 < n && s.[!i + 1] = '\xFF' then i := !i + 2
        else stop := !i + 1
      else incr i
    done;
    !stop
  end
  else if code >= zero_code - max_int_bytes && code <= zero_code + max_int_bytes
  then begin
    let k = abs (code - zero_code) in
    if pos + 1 + k > String.length s then raise (Malformed "truncated int element");
    pos + 1 + k
  end
  else raise (Malformed (Printf.sprintf "unknown type code 0x%02x" code))

(* the integer of the int element at [pos], already bounds-checked *)
let int_at s pos =
  let k = Char.code s.[pos] - zero_code in
  let flip = if k < 0 then 0xff else 0 in
  let a = ref 0 in
  for i = pos + 1 to pos + abs k do
    a := (!a lsl 8) lor (Char.code s.[i] lxor flip)
  done;
  if k < 0 then - !a else !a

let decode_elt s pos =
  let stop = scan_elt s pos in
  let elt =
    if Char.code s.[pos] = str_code then begin
      let buf = Buffer.create (stop - pos) in
      let i = ref (pos + 1) in
      while !i < stop - 1 do
        Buffer.add_char buf s.[!i];
        if s.[!i] = '\x00' then i := !i + 2 else incr i
      done;
      Str (Buffer.contents buf)
    end
    else Int (int_at s pos)
  in
  (elt, stop)

(* Common path: the first 0x00 is the terminator unless an 0xFF follows
   it, so one [String.index_from] and one [String.sub] decode the
   element; escaped strings and every error take the [decode_elt]
   fallback. *)
let decode_str s pos =
  let n = String.length s in
  let term =
    if pos < n && Char.code s.[pos] = str_code then
      try String.index_from s (pos + 1) '\x00' with Not_found -> n
    else n
  in
  if term < n && (term + 1 = n || s.[term + 1] <> '\xFF') then
    (String.sub s (pos + 1) (term - pos - 1), term + 1)
  else
    match decode_elt s pos with
    | Str v, stop -> (v, stop)
    | Int _, _ -> raise (Malformed "expected Str element")

let decode_int s pos =
  if pos < String.length s && Char.code s.[pos] = str_code then
    raise (Malformed "expected Int element");
  let stop = scan_elt s pos in
  (int_at s pos, stop)

let unpack s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let elt, stop = decode_elt s pos in
      go stop (elt :: acc)
  in
  go 0 []

let compare_packed = String.compare

(* The code bytes put strings (0x02) below every int (0x0c..0x1c), so
   the cross-type branches must sort [Str _] first. *)
let compare_elt a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | Str x, Str y -> String.compare x y
  | Str _, Int _ -> -1
  | Int _, Str _ -> 1

let compare_tuple a b =
  let rec go = function
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_elt x y in
        if c <> 0 then c else go (xs, ys)
  in
  go (a, b)

(* Prefix range: every packed tuple extending [elts] sorts inside
   [fst, snd).  0x00 is below every type code and 0xFF above, exactly
   the FoundationDB [range] convention. *)
let range_prefix elts =
  let p = pack elts in
  (p ^ "\x00", p ^ "\xFF")

let pp_elt ppf = function
  | Int n -> Format.fprintf ppf "Int %d" n
  | Str s -> Format.fprintf ppf "Str %S" s

let pp ppf elts =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_elt)
    elts
