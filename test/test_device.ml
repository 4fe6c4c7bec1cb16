(* Tests for the pluggable cell-storage backends (lib/tape/device.ml)
   and the order-preserving tuple codec (lib/tape/tuple.ml).

   The load-bearing properties:
   - the tuple encoding round-trips, and [Bytes]-level comparison of
     encodings agrees with the semantic tuple order (so run files can
     be merged without decoding);
   - the three backends are observationally identical above the device
     seam: same cell contents, same reversal/ledger accounting, same
     fault detections under the same seeded plan. *)

module Tu = Tape.Tuple

let check_int = Alcotest.(check int)
let sign x = compare x 0

(* ------------------------------------------------------------------ *)
(* tuple codec *)

let elt_gen =
  let open QCheck.Gen in
  let any_char = map Char.chr (int_range 0 255) in
  (* arbitrary bytes on purpose: the terminator escaping (0x00) and the
     top byte (0xFF) are the interesting cases *)
  let str =
    map (fun s -> Tu.Str s) (string_size ~gen:any_char (int_range 0 10))
  in
  let small_int = map (fun i -> Tu.Int i) (int_range (-1000) 1000) in
  let edge_int =
    map
      (fun i -> Tu.Int i)
      (oneofl
         [
           0; 1; -1; 255; 256; -255; -256; 65535; -65536; max_int; min_int;
           1 lsl 40; -(1 lsl 40);
         ])
  in
  frequency [ (3, str); (3, small_int); (1, edge_int) ]

let pp_tuple t =
  "["
  ^ String.concat "; "
      (List.map
         (function
           | Tu.Str s -> Printf.sprintf "Str %S" s
           | Tu.Int i -> Printf.sprintf "Int %d" i)
         t)
  ^ "]"

let arb_tuple =
  QCheck.make ~print:pp_tuple QCheck.Gen.(list_size (int_range 0 5) elt_gen)

let prop_tuple_round_trip =
  QCheck.Test.make ~name:"tuple pack/unpack round-trip" ~count:500 arb_tuple
    (fun t -> Tu.unpack (Tu.pack t) = t)

let prop_tuple_order =
  QCheck.Test.make ~name:"bytewise order of encodings = tuple order"
    ~count:500
    (QCheck.pair arb_tuple arb_tuple)
    (fun (a, b) ->
      sign (Tu.compare_packed (Tu.pack a) (Tu.pack b))
      = sign (Tu.compare_tuple a b))

let test_range_prefix () =
  (* every tuple extending [p] sorts strictly inside p's range *)
  let p = [ Tu.Str "run"; Tu.Int 3 ] in
  let lo, hi = Tu.range_prefix p in
  let inside = Tu.pack (p @ [ Tu.Str "x" ]) in
  Alcotest.(check bool) "lo < member" true (Tu.compare_packed lo inside < 0);
  Alcotest.(check bool) "member < hi" true (Tu.compare_packed inside hi < 0)

(* ------------------------------------------------------------------ *)
(* CRC-32: the bytewise table loop is the oracle for slicing-by-8 *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytewise_crc32 buf pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.get buf i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let any_char = QCheck.Gen.(map Char.chr (int_range 0 255))

let prop_crc_offsets =
  QCheck.Test.make ~name:"crc32_sub = bytewise at offsets 0-7, lengths 0-64"
    ~count:100
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:any_char (return 72)))
    (fun s ->
      let b = Bytes.of_string s in
      List.for_all
        (fun pos ->
          List.for_all
            (fun len -> Tape.Device.crc32_sub b pos len = bytewise_crc32 b pos len)
            (List.init 65 Fun.id))
        (List.init 8 Fun.id))

let prop_crc_block =
  QCheck.Test.make ~name:"crc32 = bytewise on a 16 KiB block" ~count:20
    (QCheck.make QCheck.Gen.(string_size ~gen:any_char (return 16384)))
    (fun s -> Tape.Device.crc32 s = bytewise_crc32 (Bytes.of_string s) 0 16384)

(* ------------------------------------------------------------------ *)
(* codecs: byte-identical to [Tuple.pack], self-delimiting *)

(* the Int64 encoder the native [Tuple.pack_int] replaced: the oracle
   for the int format itself *)
let int64_pack_int n =
  let rec width k v =
    if Int64.equal v 0L then max 1 k else width (k + 1) (Int64.shift_right_logical v 8)
  in
  let k = width 0 (Int64.abs (Int64.of_int n)) in
  let code, v =
    if n >= 0 then ((if n = 0 then 0x14 else 0x14 + k), Int64.of_int n)
    else
      ( 0x14 - k,
        Int64.add (Int64.of_int n)
          (if k = 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * k)) 1L) )
  in
  if n = 0 then "\x14"
  else
    String.init (k + 1) (fun i ->
        if i = 0 then Char.chr code
        else
          Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (k - i))) land 0xff))

(* [enc] matches [pack [elt]], fits [max_bytes], and decodes back to
   [v] ending exactly at its end - also with a cell after it *)
let check_codec (type a) name (c : a Tape.Device.Codec.t) (v : a) elt =
  let open Tape.Device.Codec in
  let enc = c.encode v in
  Alcotest.(check string) (name ^ ": bytes = Tuple.pack") (Tu.pack [ elt ]) enc;
  Alcotest.(check bool) (name ^ ": within max_bytes") true (String.length enc <= c.max_bytes);
  let len = String.length enc in
  Alcotest.(check bool) (name ^ ": decodes to itself") true (c.decode enc 0 = (v, len));
  Alcotest.(check bool)
    (name ^ ": decodes mid-stream")
    true
    (c.decode ("\x14" ^ enc ^ enc) 1 = (v, len + 1))

let test_string_codec () =
  let max_len = 12 in
  let c = Tape.Device.Codec.tuple_string ~max_len in
  List.iter
    (fun s -> check_codec (Printf.sprintf "%S" s) c s (Tu.Str s))
    [
      "\x00"; "\xFF"; "\x00\xFF"; "\xFF\x00"; ""; "a\x00b";
      String.make max_len 'z'; String.make max_len '\x00'; String.make max_len '\xFF';
    ]

let test_char_codec () =
  for code = 0 to 255 do
    let ch = Char.chr code in
    check_codec (Printf.sprintf "%C" ch) Tape.Device.Codec.tuple_char ch (Tu.Int code)
  done

let test_int_codec () =
  let bounds =
    List.concat_map
      (fun k -> let p = 1 lsl (8 * k) in [ p - 1; p; p + 1 ])
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  List.iter
    (fun n ->
      check_codec (string_of_int n) Tape.Device.Codec.tuple_int n (Tu.Int n);
      Alcotest.(check string) (string_of_int n ^ ": Int64 oracle") (int64_pack_int n)
        (Tu.pack_int n))
    ([ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ]
    @ bounds @ List.map (fun n -> -n) bounds)

let prop_int_codec =
  QCheck.Test.make ~name:"pack_int = Int64 oracle, decode_int inverts it" ~count:1000
    QCheck.(make ~print:string_of_int Gen.(oneof [ int; int_range (-70000) 70000 ]))
    (fun n ->
      let enc = Tu.pack_int n in
      enc = int64_pack_int n && Tu.decode_int enc 0 = (n, String.length enc))

let prop_string_codec =
  QCheck.Test.make ~name:"pack_str = pack [Str], decode_str inverts it" ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         (* NULs and 0xFFs often enough to land on every word offset *)
         let gen = frequency [ (1, return '\x00'); (1, return '\xFF'); (6, any_char) ] in
         string_size ~gen (int_range 0 40)))
    (fun s ->
      let enc = Tu.pack_str s in
      enc = Tu.pack [ Tu.Str s ] && Tu.decode_str (enc ^ enc) 0 = (s, String.length enc))

(* ------------------------------------------------------------------ *)
(* backends *)

let spill =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stlb-test-device-%d" (Unix.getpid ()))

(* deliberately tiny blocks/shards so a few dozen cells already spill
   through the bounded caches *)
let specs () =
  [
    ("mem", Tape.Device.Mem);
    ("file", Tape.Device.file_spec ~block_bytes:256 ~cache_blocks:2 spill);
    ("shard", Tape.Device.shard_spec ~shard_bytes:256 ~cache_shards:2 spill);
  ]

(* One deterministic workload on one backend: preload, a forward scan
   that reads every cell and rewrites every third one reversed, a
   rewind, a verification scan - all under a seeded fault plan (no
   transients, so the walk itself never raises). Returns everything
   observable above the seam. *)
let walk ~seed items spec =
  let r = Obs.Ledger.Recorder.create ~label:"parity" () in
  let g = Tape.Group.create ~device:spec () in
  Obs.Ledger.Recorder.observe r g;
  let codec = Tape.Device.Codec.tuple_string ~max_len:12 in
  let t = Tape.Group.tape g ~name:"cells" ~codec ~blank:"" () in
  Tape.preload t items;
  let plan =
    Faults.Plan.create ~seed
      ~rates:
        {
          Faults.bit_flip = 0.1;
          stuck_read = 0.05;
          torn_write = 0.1;
          transient = 0.0;
        }
  in
  Faults.attach_string plan t;
  let n = List.length items in
  let seen = ref [] in
  for i = 0 to n - 1 do
    let v = Tape.read t in
    seen := v :: !seen;
    if i mod 3 = 0 then
      Tape.write t
        (String.init (String.length v) (fun j ->
             v.[String.length v - 1 - j]));
    Tape.move t Tape.Right
  done;
  Tape.rewind t;
  for _ = 0 to n - 1 do
    seen := Tape.read t :: !seen;
    Tape.move t Tape.Right
  done;
  let contents = Tape.to_list t in
  let l = Obs.Ledger.Recorder.ledger ~n r in
  let faults = Tape.Group.faults_injected g in
  Tape.Group.close_all g;
  ( List.rev !seen,
    contents,
    ( l.Obs.Ledger.scans,
      l.Obs.Ledger.reversals,
      l.Obs.Ledger.internal_peak,
      l.Obs.Ledger.tapes,
      l.Obs.Ledger.faults_injected ),
    faults )

let arb_items =
  QCheck.make
    ~print:(fun l -> String.concat "," l)
    QCheck.Gen.(
      list_size (int_range 1 40)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))

let prop_backend_parity =
  QCheck.Test.make ~name:"mem/file/shard backends are indistinguishable"
    ~count:30
    (QCheck.pair arb_items QCheck.(make Gen.(int_bound 1_000_000)))
    (fun (items, seed) ->
      match List.map (fun (_, s) -> walk ~seed items s) (specs ()) with
      | [] -> true
      | reference :: rest -> List.for_all (( = ) reference) rest)

let test_spill_files_deleted () =
  (* close_all must leave nothing behind - spill files are scratch *)
  let items = List.init 64 (fun i -> Printf.sprintf "item-%02d" i) in
  List.iter
    (fun (name, spec) ->
      let _ = walk ~seed:7 items spec in
      let leftover =
        if Sys.file_exists spill then Array.length (Sys.readdir spill) else 0
      in
      check_int (name ^ ": no leftover spill entries") 0 leftover)
    (specs ());
  if Sys.file_exists spill then Unix.rmdir spill

let test_file_device_io () =
  (* the byte-backed devices must actually touch their backing files
     once the data exceeds the cache; mem must not *)
  let items = List.init 200 (fun i -> Printf.sprintf "row-%03d-xx" i) in
  let io spec =
    let g = Tape.Group.create ~device:spec () in
    let codec = Tape.Device.Codec.tuple_string ~max_len:12 in
    let t = Tape.Group.tape g ~name:"cells" ~codec ~blank:"" () in
    Tape.preload t items;
    for _ = 1 to List.length items do
      ignore (Tape.read t);
      Tape.move t Tape.Right
    done;
    let s = Tape.Group.device_stats g in
    Tape.Group.close_all g;
    s.Tape.Device.io_read_bytes + s.Tape.Device.io_write_bytes
  in
  List.iter
    (fun (name, spec) ->
      let bytes = io spec in
      match name with
      | "mem" -> check_int "mem does no backing I/O" 0 bytes
      | _ ->
          Alcotest.(check bool)
            (name ^ " streams through backing files")
            true (bytes > 0))
    (specs ());
  if Sys.file_exists spill then Unix.rmdir spill

let () =
  Alcotest.run "device"
    [
      ( "tuple",
        [
          QCheck_alcotest.to_alcotest prop_tuple_round_trip;
          QCheck_alcotest.to_alcotest prop_tuple_order;
          Alcotest.test_case "range_prefix" `Quick test_range_prefix;
        ] );
      ( "crc",
        [
          QCheck_alcotest.to_alcotest prop_crc_offsets;
          QCheck_alcotest.to_alcotest prop_crc_block;
        ] );
      ( "codec",
        [
          Alcotest.test_case "string cells" `Quick test_string_codec;
          Alcotest.test_case "all 256 chars" `Quick test_char_codec;
          Alcotest.test_case "int boundaries" `Quick test_int_codec;
          QCheck_alcotest.to_alcotest prop_int_codec;
          QCheck_alcotest.to_alcotest prop_string_codec;
        ] );
      ( "backends",
        [
          QCheck_alcotest.to_alcotest prop_backend_parity;
          Alcotest.test_case "spill files deleted" `Quick
            test_spill_files_deleted;
          Alcotest.test_case "backing I/O happens (and only off-mem)" `Quick
            test_file_device_io;
        ] );
    ]
