(* perfbench — the repository's end-to-end benchmark.

   One run measures one workload for a fixed number of seconds and
   prints, as its last stdout line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones (per-layer timing off); with
   --trace 1 a separate traced run reports the per-layer metrics and
   its own overhead. Every layer is measured from outside: the
   benchmark times calls into public functions, counts syscalls
   through the public [Tape.Device.raw_factory] seam and reads cost
   ledgers through the public [?obs] recorder. See README.md. *)

(* monotonic, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* arguments *)

type device = Mem | File | Shard

type workload = Fingerprint of device | Sort of device | Adversary | Serve

let device_name = function Mem -> "mem" | File -> "file" | Shard -> "shard"

let workloads =
  List.concat_map
    (fun d ->
      [
        ("fingerprint-" ^ device_name d, Fingerprint d);
        ("sort-" ^ device_name d, Sort d);
      ])
    [ Mem; File; Shard ]
  @ [ ("adversary", Adversary); ("serve", Serve) ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat " " (List.map fst workloads));
  exit 2

let parse_args () =
  let wl = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v workloads with
        | Some w -> wl := Some (v, w)
        | None -> usage ());
        go rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_int (int_of v)); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!wl, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr when t > 0.0 -> (w, s, t, tr)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* statistics and the result record *)

(* nearest rank in a sorted array *)
let at q a =
  let n = Float.Array.length a in
  if n = 0 then nan
  else Float.Array.get a (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let sorted a =
  let a = Float.Array.copy a in
  Float.Array.sort Float.compare a;
  a

let quantile q xs = at q (sorted (Float.Array.of_list xs))

let median = quantile 0.5

(* The typical wall of a decide or census call. A run holds a handful to
   a few hundred of them, their cost is fixed by the code, and co-tenants
   on a shared host only ever add to it — in phases lasting seconds that
   move a median by up to half. The 10th percentile (the fastest call
   when a run has ten or fewer) tracks the code and not the neighbours. *)
let typical = quantile 0.10

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** reversed *)
}

let res = { attempted = 0; failed = 0; metrics = [] }

(* a failed or wrong operation is counted, never dropped *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      res.failed <- res.failed + 1;
      prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

let metric name unit value = res.metrics <- (name, value, unit) :: res.metrics

let print_result () =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else (
      fail "non-finite metric value";
      "0")
  in
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      res.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (res.failed = 0 && res.attempted > 0)
    (max 1 res.attempted) res.failed
    (String.concat ", " fields)

(* Words allocated: the calling domain's exact minor count plus direct
   major allocations, which the runtime samples at each minor collection
   (summed over domains). *)
let alloc_mark () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let alloc_words m0 = alloc_mark () -. m0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The end-to-end metrics of a decide or census run; serve reports its
   own (the median request round trip). *)
let call_metrics walls =
  metric "op_ms" "ms" (1e3 *. typical walls);
  metric "heap_peak_mb" "MB" (heap_peak_mb ())

(* Run [op i] for i = 0, 1, ... until [seconds] have passed and at
   least [min_ops] ran. Each op returns the wall of its measured part;
   the result is those walls in run order and the loop's own wall.
   Walls are kept unboxed in fixed-size chunks, so a serve run's tens of
   thousands of samples cost 8 bytes each and the heap they take
   follows the request count smoothly. *)
let timed_walls ~seconds ~min_ops op =
  let chunk = 16384 in
  let full = ref [] and cur = ref (Float.Array.create chunk) and fill = ref 0 in
  let t_start = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t_start < seconds do
    if !fill = chunk then begin
      full := !cur :: !full;
      cur := Float.Array.create chunk;
      fill := 0
    end;
    Float.Array.set !cur !fill (op !i);
    incr fill;
    incr i
  done;
  let window = now () -. t_start in
  (Float.Array.concat (List.rev (Float.Array.sub !cur 0 !fill :: !full)), window)

let timed_loop ~seconds ~min_ops op =
  let walls, window = timed_walls ~seconds ~min_ops op in
  (Float.Array.to_list walls, window)

let clock f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] [reps] times; the median wall is the reported set-up time,
   the last result is kept. *)
let setup_reps = 5

let repeated_setup ?(teardown = ignore) f =
  let walls = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter teardown !last;
    let t0 = now () in
    let r = f () in
    walls := (now () -. t0) :: !walls;
    last := Some r
  done;
  metric "setup_s" "s" (median !walls);
  Option.get !last

(* ------------------------------------------------------------------ *)
(* scratch area, spill hygiene and the syscall seam *)

let work_root = ".perfbench-work"

let work_dir =
  lazy
    (let d = Filename.concat work_root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir d 0o755;
     d)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let remove_work_dir () =
  if Lazy.is_val work_dir then begin
    remove_tree (Lazy.force work_dir);
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  end

(* Syscall counters fed by a wrapper of [Raw.real] plugged in through
   the public raw_factory seam; [timed] adds a clock read around each
   call (traced runs only). *)
type io = {
  mutable calls : int;
  mutable read_bytes : int;
  mutable write_bytes : int;
  mutable busy_s : float;
}

let io = { calls = 0; read_bytes = 0; write_bytes = 0; busy_s = 0.0 }

let reset_io () =
  io.calls <- 0;
  io.read_bytes <- 0;
  io.write_bytes <- 0;
  io.busy_s <- 0.0

let counting_raw ~timed : Tape.Device.raw_factory =
 fun ~name:_ ->
  let r = Tape.Device.Raw.real in
  let wrap f =
    if timed then (fun x ->
      let t0 = now () in
      let v = f x in
      io.busy_s <- io.busy_s +. (now () -. t0);
      v)
    else f
  in
  let count f x =
    io.calls <- io.calls + 1;
    wrap f x
  in
  {
    Tape.Device.Raw.pread =
      (fun fd b ~pos ~len ~off ->
        let n = count (fun () -> r.Tape.Device.Raw.pread fd b ~pos ~len ~off) () in
        io.read_bytes <- io.read_bytes + n;
        n);
    pwrite =
      (fun fd b ~pos ~len ~off ->
        let n = count (fun () -> r.Tape.Device.Raw.pwrite fd b ~pos ~len ~off) () in
        io.write_bytes <- io.write_bytes + n;
        n);
    fsync = (fun fd -> count r.Tape.Device.Raw.fsync fd);
    rename = (fun a b -> count (fun () -> r.Tape.Device.Raw.rename a b) ());
    remove = (fun p -> count r.Tape.Device.Raw.remove p);
  }

(* Instance size and cache geometry of a decide workload. 16 KiB blocks
   throughout; [cache_blocks] of them cached (file), 2 cached shards of
   [shard_bytes] (shard). *)
type geometry = { m : int; cache_blocks : int; shard_bytes : int }

let block_bytes = 16384
let cache_shards = 2

(* The fingerprint runs N = 2·10^6 (m = 40000, n = 24) at the CLI's
   geometry for --block-size 16384. The sort runs m = 10000 against a
   quarter of that cache: each tape stays 7.9× (file) and 3.9× (shard)
   its cache, as at m = 40000 with the CLI's geometry, while one op
   takes about a second, so a run holds enough of them to be steady. *)
let geometry = function
  | Fingerprint _ -> { m = 40000; cache_blocks = 16; shard_bytes = 16 * block_bytes }
  | _ -> { m = 10000; cache_blocks = 4; shard_bytes = 4 * block_bytes }

let spec_of ?raw g dev dir =
  match dev with
  | Mem -> Tape.Device.Mem
  | File -> Tape.Device.file_spec ~block_bytes ~cache_blocks:g.cache_blocks ?raw dir
  | Shard -> Tape.Device.shard_spec ~shard_bytes:g.shard_bytes ~cache_shards ?raw dir

(* Cells a device keeps in RAM, from the layout device.mli documents:
   file slots are the codec's max_bytes + 2, shard cells max_bytes + 1. *)
let cache_cells g dev ~max_bytes =
  match dev with
  | Mem -> max_int
  | File -> g.cache_blocks * max 1 (block_bytes / (max_bytes + 2))
  | Shard -> cache_shards * max 16 (g.shard_bytes / (max_bytes + 1))

(* Each byte-backed op gets a fresh spill directory; afterwards it must
   be empty and no cleanup failure may have been counted. *)
let spill_counter = ref 0

let with_spill dev f =
  match dev with
  | Mem -> f ""
  | File | Shard ->
      incr spill_counter;
      let dir =
        Filename.concat (Lazy.force work_dir) (Printf.sprintf "spill-%d" !spill_counter)
      in
      Unix.mkdir dir 0o755;
      let failures0 = Tape.Device.cleanup_failures () in
      Fun.protect
        ~finally:(fun () ->
          let left = Array.length (Sys.readdir dir) in
          check (left = 0) "spill directory %s holds %d entries after the op" dir left;
          check
            (Tape.Device.cleanup_failures () = failures0)
            "Tape.Device.cleanup_failures moved during the op in %s" dir;
          remove_tree dir)
        (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* the problems layer: MULTISET-EQ inputs for the decide workloads *)

let decide_n = 24

type inputs = {
  insts : (Problems.Instance.t * bool) array;  (** decoded instance, label *)
  gen_s : float;
  encode_s : float;
  decode_s : float;
}

let problems_metrics ins =
  metric "problems.gen_ms" "ms" (1e3 *. ins.gen_s);
  metric "problems.encode_ms" "ms" (1e3 *. ins.encode_s);
  metric "problems.decode_ms" "ms" (1e3 *. ins.decode_s)

(* Generate a yes and a no instance from the seed, encode them and
   decode the encodings: only the decoded instances reach the program. *)
let decide_inputs ~m seed () =
  let st = Random.State.make [| seed |] in
  let p = Problems.Decide.Multiset_equality in
  let t0 = now () in
  let yes = Problems.Generators.yes_instance st p ~m ~n:decide_n in
  let no = Problems.Generators.no_instance st p ~m ~n:decide_n in
  let t1 = now () in
  let enc = [| Problems.Instance.encode yes; Problems.Instance.encode no |] in
  let t2 = now () in
  let dec = Array.map Problems.Instance.decode enc in
  let t3 = now () in
  {
    insts = [| (dec.(0), true); (dec.(1), false) |];
    gen_s = t1 -. t0;
    encode_s = t2 -. t1;
    decode_s = t3 -. t2;
  }

(* ------------------------------------------------------------------ *)
(* decide workloads *)

(* What a decide op returns that must be identical across devices: the
   verdict, the decider's deterministic counts, and (fingerprint) the
   drawn parameters. *)
type outcome = { verdict : bool; counts : int list; params : int list }

let decide_op wl ~seed ~spec inst ?obs () =
  match wl with
  | Fingerprint _ ->
      (* a fresh state per op: the same (p1, p2, x) on every device *)
      let st = Random.State.make [| seed; 1 |] in
      let v, rep, prm = Fingerprint.run ?obs ~device:spec st inst in
      ( {
          verdict = v;
          counts =
            [ rep.Fingerprint.scans; rep.Fingerprint.internal_bits; rep.Fingerprint.tapes ];
          params = [ prm.Fingerprint.p1; prm.Fingerprint.p2; prm.Fingerprint.x ];
        },
        Some prm )
  | _ ->
      let v, rep =
        Extsort.decide ?obs ~device:spec Problems.Decide.Multiset_equality inst
      in
      ( {
          verdict = v;
          counts =
            [
              rep.Extsort.scans; rep.Extsort.reversals; rep.Extsort.register_peak;
              rep.Extsort.tapes;
            ];
          params = [];
        },
        None )

let ledger_counts (l : Obs.Ledger.t) =
  [ l.Obs.Ledger.scans; l.reversals; l.internal_peak; Obs.Ledger.head_moves l;
    Obs.Ledger.reads l; Obs.Ledger.writes l ]

(* Replay the fingerprint's number theory from outside with the params
   it returned: e_i = v_i mod p1, then x^e_i mod p2. Returns the replayed
   verdict and the two walls. *)
let replay_numtheory inst (prm : Fingerprint.params) =
  let vs = Array.append (Problems.Instance.xs inst) (Problems.Instance.ys inst) in
  let t0 = now () in
  let es = Array.map (fun v -> Numtheory.mod_of_bits v ~modulus:prm.Fingerprint.p1) vs in
  let t1 = now () in
  let pw = Array.map (fun e -> Numtheory.pow_mod prm.Fingerprint.x e prm.Fingerprint.p2) es in
  let t2 = now () in
  let m = Problems.Instance.m inst in
  let sum lo =
    let s = ref 0 in
    for i = lo to lo + m - 1 do
      s := Numtheory.add_mod !s pw.(i) prm.Fingerprint.p2
    done;
    !s
  in
  (sum 0 = sum m, Array.length vs, t1 -. t0, t2 -. t1)

(* One traced op: its Gc words, outcome, ledger and I/O. *)
type sample = {
  words : float;
  outcome : outcome;
  prm : Fingerprint.params option;
  ledger : Obs.Ledger.t;
  dstats : Tape.Device.stats;
  syscalls : int;
  syscall_s : float;
  raw_bytes : int;  (** bytes through pread/pwrite, frames included *)
}

(* Per-cell time of a device-level preload and of a read+move scan over
   [cells] on a fresh tape of this device. *)
let tape_probe (type a) g dev (codec : a Tape.Device.Codec.t) (blank : a)
    (cells : a Seq.t) =
  with_spill dev (fun dir ->
      let d = Tape.Device.instantiate ~codec (spec_of g dev dir) ~blank ~name:"probe" in
      let t = Tape.create ~name:"probe" ~device:d ~blank () in
      let t0 = now () in
      Tape.preload_seq t cells;
      let t1 = now () in
      let n = Tape.Device.extent d in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Tape.read t));
        Tape.move t Tape.Right
      done;
      let t2 = now () in
      Tape.close t;
      let per_cell s = s *. 1e9 /. float_of_int n in
      (per_cell (t1 -. t0), per_cell (t2 -. t1)))

(* ns per call of [f ()], over enough calls to cover ~50 ms *)
let probe_ns f =
  let reps = ref 0 and t0 = now () in
  while now () -. t0 < 0.05 do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  (now () -. t0) *. 1e9 /. float_of_int !reps

let run_decide wl dev ~seed ~seconds ~trace =
  let g = geometry wl in
  let ins = repeated_setup (decide_inputs ~m:g.m seed) in
  problems_metrics ins;
  let ninputs = Array.length ins.insts in
  let expected =
    Array.map
      (fun (inst, label) ->
        let r = Problems.Decide.decide Problems.Decide.Multiset_equality inst in
        check (r = label) "generator label disagrees with Problems.Decide.decide";
        r)
      ins.insts
  in
  let is_fp = match wl with Fingerprint _ -> true | _ -> false in
  (* the first outcome per input; every later op and device must repeat it *)
  let seen = Array.make ninputs None in
  let judge ~what k (o : outcome) =
    res.attempted <- res.attempted + 1;
    let _, label = ins.insts.(k) in
    if is_fp then check ((not label) || o.verdict) "fingerprint said NO on a yes instance"
    else check (o.verdict = expected.(k)) "sort verdict differs from Problems.Decide.decide";
    match seen.(k) with
    | None -> seen.(k) <- Some o
    | Some o0 -> check (o = o0) "%s outcome differs on input %d" what k
  in
  let max_bytes =
    if is_fp then Tape.Device.Codec.tuple_char.Tape.Device.Codec.max_bytes
    else (Tape.Device.Codec.tuple_string ~max_len:decide_n).Tape.Device.Codec.max_bytes
  in
  let inst0, _ = ins.insts.(0) in
  (* cells of one input tape: N chars (fingerprint) or m strings (sort) *)
  let tape_cells =
    if is_fp then Problems.Instance.size inst0 else Problems.Instance.m inst0
  in
  let ratio = float_of_int tape_cells /. float_of_int (cache_cells g dev ~max_bytes) in
  if dev <> Mem then
    check (ratio >= 2.0) "tape/cache ratio %.2f below 2: the %s row would be cache-resident"
      ratio (device_name dev);
  (* one op on this workload's device: fresh spill, out-of-core guard *)
  let op ~timed ?obs k =
    with_spill dev (fun dir ->
        reset_io ();
        let spec = spec_of ~raw:(counting_raw ~timed) g dev dir in
        Gc.full_major ();
        let (o, prm), wall = clock (decide_op wl ~seed ~spec (fst ins.insts.(k)) ?obs) in
        if dev <> Mem then
          check (io.read_bytes > 0) "%s row read 0 bytes: cache-resident, not a measurement"
            (device_name dev);
        judge ~what:(device_name dev) k o;
        (o, prm, wall))
  in
  (* mem runs of every input: the reference every device must agree
     with, and the warm-up (heap grown, code paths hot) before timing *)
  let mem_reference ?obs () =
    Array.init ninputs (fun k ->
        let obs = Option.map (fun f -> f ()) obs in
        let (o, _), wall =
          clock (decide_op wl ~seed ~spec:Tape.Device.Mem (fst ins.insts.(k)) ?obs)
        in
        judge ~what:"mem" k o;
        (wall, Option.map (fun r -> ledger_counts (Obs.Ledger.Recorder.ledger r)) obs))
  in
  ignore (mem_reference ());
  let untraced_seconds = if trace then seconds /. 2.0 else seconds in
  let walls, _ =
    timed_loop ~seconds:untraced_seconds ~min_ops:ninputs (fun i ->
        let _, _, wall = op ~timed:false (i mod ninputs) in
        wall)
  in
  let op_s = typical walls in
  Printf.printf "op walls (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  if not trace then call_metrics walls
  else begin
    (* traced ops: ledger recorder, timed syscall seam, Gc counters *)
    let samples = ref [] in
    let traced_walls, _ =
      timed_loop ~seconds:(seconds /. 2.0) ~min_ops:ninputs (fun i ->
          let k = i mod ninputs in
          let r = Obs.Ledger.Recorder.create () in
          let g0 = alloc_mark () in
          let outcome, prm, wall = op ~timed:true ~obs:r k in
          let words = alloc_words g0 in
          samples :=
            ( k,
              {
                words;
                outcome;
                prm;
                ledger = Obs.Ledger.Recorder.ledger r;
                dstats = Obs.Ledger.Recorder.device_stats r;
                syscalls = io.calls;
                syscall_s = io.busy_s;
                raw_bytes = io.read_bytes + io.write_bytes;
              } )
            :: !samples;
          wall)
    in
    let samples = List.rev !samples in
    let mem = mem_reference ~obs:(fun () -> Obs.Ledger.Recorder.create ()) () in
    List.iter
      (fun (k, s) ->
        check (Some (ledger_counts s.ledger) = snd mem.(k))
          "%s ledger counts differ from mem on input %d" (device_name dev) k)
      samples;
    (* shares divide a median layer time by the median traced op *)
    let op_t = typical traced_walls and op_med = median traced_walls in
    let mem_s = median (Array.to_list (Array.map fst mem)) in
    let med f = median (List.map (fun (_, s) -> f s) samples) in
    let _, s0 = List.hd samples in
    let l0 = s0.ledger in
    let only b x = if b then float_of_int x else 0.0 in
    metric "fingerprint.scans" "count" (only is_fp l0.Obs.Ledger.scans);
    metric "fingerprint.internal_bits" "count" (only is_fp l0.Obs.Ledger.internal_peak);
    metric "extsort.scans" "count" (only (not is_fp) l0.Obs.Ledger.scans);
    metric "extsort.head_moves" "count" (only (not is_fp) (Obs.Ledger.head_moves l0));
    metric "extsort.reads" "count" (only (not is_fp) (Obs.Ledger.reads l0));
    metric "extsort.writes" "count" (only (not is_fp) (Obs.Ledger.writes l0));
    (* cells the decider preloads: the N-char tape, or both m-string halves *)
    let preloaded = float_of_int (if is_fp then tape_cells else 2 * tape_cells) in
    let rd = med (fun s -> float_of_int s.dstats.Tape.Device.io_read_bytes) in
    let wr = med (fun s -> float_of_int s.dstats.Tape.Device.io_write_bytes) in
    if dev <> Mem then check (rd > 0.0) "%s ledger reports io_read_bytes = 0" (device_name dev);
    let syscall_s = med (fun s -> s.syscall_s) in
    let on_disk x = if dev = Mem then 0.0 else x in
    metric "device.syscalls" "count" (med (fun s -> float_of_int s.syscalls));
    metric "device.io_read_bytes" "B" rd;
    metric "device.io_write_bytes" "B" wr;
    metric "device.read_bytes_per_cell" "B/cell" (rd /. preloaded);
    metric "device.tape_cache_ratio" "ratio" (on_disk ratio);
    metric "device.syscall_share" "ratio" (syscall_s /. op_med);
    (* CRC and codec: probes of the public functions, scaled by the
       bytes that crossed the seam and the cells the decider touched *)
    let block = String.make block_bytes 'x' in
    let crc_ns_per_byte =
      probe_ns (fun () -> Tape.Device.crc32 block) /. float_of_int block_bytes
    in
    (* the device encodes a cell on every set (preload and tape write)
       and decodes one on every get (tape read) *)
    let encode_ns, decode_ns =
      let probe (type a) (c : a Tape.Device.Codec.t) (v : a) =
        let e = c.Tape.Device.Codec.encode v in
        ( probe_ns (fun () -> c.Tape.Device.Codec.encode v),
          probe_ns (fun () -> c.Tape.Device.Codec.decode e 0) )
      in
      if is_fp then probe Tape.Device.Codec.tuple_char '1'
      else
        probe
          (Tape.Device.Codec.tuple_string ~max_len:decide_n)
          (Util.Bitstring.to_string (Problems.Instance.x inst0 1))
    in
    let codec_s =
      (decode_ns *. float_of_int (Obs.Ledger.reads l0)
      +. encode_ns *. (float_of_int (Obs.Ledger.writes l0) +. preloaded))
      *. 1e-9
    in
    let share_of s = s /. op_med in
    let crc_s = crc_ns_per_byte *. med (fun s -> float_of_int s.raw_bytes) *. 1e-9 in
    metric "device.crc_share" "ratio" (on_disk (share_of crc_s));
    metric "device.codec_share" "ratio" (on_disk (share_of codec_s));
    metric "device.above_seam_share" "ratio"
      (on_disk (share_of (Float.max 0.0 (op_med -. mem_s -. syscall_s))));
    (* tape: per-cell preload and read+move costs. The share uses the mem
       coefficients (head and accounting alone; the device has its own
       shares) times the cells the decider preloads and the head moves
       it makes; this device's coefficients are printed alongside. *)
    let tape_probe_on d =
      if is_fp then
        tape_probe g d Tape.Device.Codec.tuple_char '_'
          (String.to_seq (Problems.Instance.encode inst0))
      else
        tape_probe g d (Tape.Device.Codec.tuple_string ~max_len:decide_n) ""
          (Seq.map Util.Bitstring.to_string (Array.to_seq (Problems.Instance.xs inst0)))
    in
    let preload_ns, scan_ns = tape_probe_on Mem in
    let dev_preload_ns, dev_scan_ns =
      if dev = Mem then (preload_ns, scan_ns) else tape_probe_on dev
    in
    metric "tape.preload_share" "ratio" (share_of (preload_ns *. preloaded *. 1e-9));
    metric "tape.scan_share" "ratio"
      (share_of (scan_ns *. float_of_int (Obs.Ledger.head_moves l0) *. 1e-9));
    (* numtheory: replay the fingerprint's arithmetic with its params *)
    let calls, mob_s, pm_s =
      match (samples, s0.prm) with
      | (k, s) :: _, Some prm ->
          let accept, calls, mob_s, pm_s = replay_numtheory (fst ins.insts.(k)) prm in
          res.attempted <- res.attempted + 1;
          check (accept = s.outcome.verdict) "numtheory replay disagrees with the verdict";
          (calls, mob_s, pm_s)
      | _ -> (0, 0.0, 0.0)
    in
    metric "numtheory.pow_mod_calls" "count" (float_of_int calls);
    metric "numtheory.share" "ratio" (share_of (mob_s +. pm_s));
    metric "gc.alloc_words" "count" (med (fun s -> s.words));
    metric "trace_overhead" "ratio" (op_t /. op_s);
    Printf.printf
      "traced %s: op %.3f s (untraced %.3f s), mem %.3f s; %.0f syscalls in %.3f s; \
       read %.0f B, wrote %.0f B; crc %.2f ns/B, codec encode %.1f / decode %.1f \
       ns/cell; tape preload/scan %.1f/%.1f ns/cell on mem, %.1f/%.1f on %s; \
       mod_of_bits %.3f s + pow_mod %.3f s over %d calls\n"
      (device_name dev) op_t op_s mem_s
      (med (fun s -> float_of_int s.syscalls))
      syscall_s rd wr crc_ns_per_byte encode_ns decode_ns preload_ns scan_ns
      dev_preload_ns dev_scan_ns (device_name dev) mob_s pm_s calls
  end

(* ------------------------------------------------------------------ *)
(* adversary workload: Lemma 21 census against the staircase machine *)

let adversary_m = 64
let census_samples = 48

(* The staircase runs two chains short of complete coverage: one short
   is not enough at m = 64, where chain overlap still compares every
   ϕ-pair and the adversary rightly reports "not fooled" (EXPERIMENTS.md,
   E4). Two short, every seed tried is FOOLED. *)
let chains_short = 2

(* stlb adversary -m 64 --chains 11's census fingerprint at seed 42 *)
let seed42_fingerprint = 0x3c65770733dbd97dL

let run_adversary ~seed ~seconds ~trace =
  let pool = Parallel.Pool.create ~domains:1 () in
  (* set-up: the CHECK-ϕ instance space and the census root (as stlb
     adversary --seed draws it), then the 48 yes samples the census
     will draw from that root, checked, encoded and decoded; sample 0
     is the run_view probe's input *)
  let root = Parallel.Rng.seed_of_state (Random.State.make [| seed |]) in
  let space, probe_inst, gen_s, encode_s, decode_s =
    repeated_setup (fun () ->
        let t0 = now () in
        let space =
          Problems.Generators.Checkphi.default_space ~m:adversary_m ~n:(2 * adversary_m)
        in
        let samples =
          Array.init census_samples (fun i ->
              Problems.Generators.Checkphi.yes (Parallel.Rng.state ~seed:root ~index:i) space)
        in
        let t1 = now () in
        let enc = Array.map Problems.Instance.encode samples in
        let t2 = now () in
        let dec = Array.map Problems.Instance.decode enc in
        let t3 = now () in
        Array.iter
          (fun inst ->
            check
              (Problems.Generators.Checkphi.is_yes space inst)
              "census sample is not a yes instance")
          dec;
        (space, dec.(0), t1 -. t0, t2 -. t1, t3 -. t2))
  in
  metric "problems.gen_ms" "ms" (1e3 *. gen_s);
  metric "problems.encode_ms" "ms" (1e3 *. encode_s);
  metric "problems.decode_ms" "ms" (1e3 *. decode_s);
  (* the first census is re-validated; every later one must repeat it *)
  let first = ref None in
  let op () =
    let machine, build_s =
      clock (fun () ->
          let needed = Listmachine.Machines.chains_needed ~space in
          Listmachine.Machines.staircase_checkphi ~space ~chains:(needed - chains_short)
            ~optimistic:true)
    in
    let c, census_s =
      clock (fun () ->
          Stcore.Adversary.attack_census ~pool ~seed:root (Random.State.make [| seed |])
            ~space ~machine ~yes_samples:census_samples ())
    in
    res.attempted <- res.attempted + 1;
    (match !first with
    | Some c0 ->
        check
          (c.Stcore.Adversary.fingerprint = c0.Stcore.Adversary.fingerprint
          && c.Stcore.Adversary.outcome = c0.Stcore.Adversary.outcome)
          "census changed between ops"
    | None ->
        first := Some c;
        (match c.Stcore.Adversary.outcome with
        | Stcore.Adversary.Fooled _ ->
            check (Stcore.Adversary.verify_fooled ~space ~machine c.Stcore.Adversary.outcome)
              "verify_fooled rejected the FOOLED outcome"
        | _ -> fail "adversary did not return FOOLED");
        if seed = 42 then
          check (c.Stcore.Adversary.fingerprint = seed42_fingerprint)
            "census fingerprint 0x%016Lx, expected 0x%016Lx at seed 42"
            c.Stcore.Adversary.fingerprint seed42_fingerprint);
    (machine, c, (build_s, census_s))
  in
  let untraced_seconds = if trace then seconds /. 2.0 else seconds in
  let walls, _ =
    timed_loop ~seconds:untraced_seconds ~min_ops:1 (fun _ ->
        let _, _, (b, s) = op () in
        b +. s)
  in
  let op_s = typical walls in
  Printf.printf "op walls (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  if not trace then call_metrics walls
  else begin
    let tr = ref [] in
    let traced_walls, _ =
      timed_loop ~seconds:(seconds /. 2.0) ~min_ops:1 (fun _ ->
          let g0 = alloc_mark () in
          let machine, c, (build_s, census_s) = op () in
          tr := (machine, c, build_s, census_s, alloc_words g0) :: !tr;
          build_s +. census_s)
    in
    let op_t = typical traced_walls and op_med = median traced_walls in
    let machine, c, _, _, _ = List.hd !tr in
    let med f = median (List.map f !tr) in
    (* one machine run, timed alone: the deterministic staircase on the
       canonical form of the probe sample *)
    let fuel = max 200_000 (2 * machine.Listmachine.Nlm.state_count) in
    let canon = Stcore.Adversary.canonicalize probe_inst in
    let values = Array.append (Problems.Instance.xs canon) (Problems.Instance.ys canon) in
    let t0 = now () in
    let vt = Listmachine.Nlm.run_view ~fuel machine ~values ~choices:(fun _ -> 0) in
    let run_view_s = now () -. t0 in
    res.attempted <- res.attempted + 1;
    check vt.Listmachine.Nlm.vaccepted "staircase machine rejected a yes sample";
    let steps = Array.length vt.Listmachine.Nlm.views in
    metric "listmachine.steps" "count" (float_of_int steps);
    metric "listmachine.build_share" "ratio" (med (fun (_, _, b, _, _) -> b) /. op_med);
    metric "listmachine.run_view_share" "ratio" (run_view_s /. op_med);
    metric "core.census_share" "ratio" (med (fun (_, _, _, s, _) -> s) /. op_med);
    metric "core.machine_runs" "count" (float_of_int c.Stcore.Adversary.machine_runs);
    metric "core.canonical_hits" "count" (float_of_int c.Stcore.Adversary.canonical_hits);
    metric "core.classes" "count" (float_of_int c.Stcore.Adversary.classes);
    metric "gc.alloc_words" "count" (med (fun (_, _, _, _, w) -> w));
    metric "trace_overhead" "ratio" (op_t /. op_s);
    Printf.printf
      "traced adversary: op %.3f s (untraced %.3f s); build %.3f s, census %.3f s; \
       one run_view %.3f s over %d steps (%.0f ns/step)\n"
      op_t op_s (med (fun (_, _, b, _, _) -> b)) (med (fun (_, _, _, s, _) -> s))
      run_view_s steps (run_view_s *. 1e9 /. float_of_int steps)
  end

(* ------------------------------------------------------------------ *)
(* serve workload: closed loop over an in-process stlb/1 server *)

let serve_m = 6
let serve_n = 8
let serve_items = 4096

type item = {
  body : Serve.Frame.decide_body;
  expect : bool option;  (** [None]: a fingerprint no-instance *)
}

let start_server ~seed socket =
  let cfg = { (Serve.Server.default ~socket) with Serve.Server.seed; domains = 1 } in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Serve.Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  d

let stop_server socket d ~id =
  let c = Serve.Client.connect socket in
  Serve.Client.shutdown c ~id;
  Serve.Client.close c;
  Domain.join d

(* The in-process twin of the server's decide: decode, ledger recorder,
   decider, audit — everything but the socket and the frame codec. *)
let decide_in_process ~seed ~id (b : Serve.Frame.decide_body) =
  let inst = Problems.Instance.decode b.Serve.Frame.instance in
  let r = Obs.Ledger.Recorder.create () in
  let n = Problems.Instance.size inst in
  let audit spec = (Obs.Audit.check spec (Obs.Ledger.Recorder.ledger ~n r)).Obs.Audit.ok in
  match (b.Serve.Frame.problem, b.Serve.Frame.algorithm) with
  | Serve.Frame.Core _, Serve.Frame.Fingerprint ->
      let st = Parallel.Rng.request_state ~server_seed:seed ~request_id:id in
      let v, _, prm = Fingerprint.run ~obs:r st inst in
      (v, audit Obs.Audit.fingerprint_spec, r, Some (inst, prm))
  | Serve.Frame.Core p, Serve.Frame.Sort ->
      let v, _ = Extsort.decide ~obs:r p inst in
      (v, audit Obs.Audit.mergesort_spec, r, None)
  | Serve.Frame.Core p, Serve.Frame.Nst ->
      let v, rep = Nst.decide_with_prover ~obs:r p inst in
      (v, (rep = None || audit Obs.Audit.nst_spec), r, None)
  | _ -> invalid_arg "decide_in_process: not a mixed_item request"

let json_int_field json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let lp = String.length pat and lj = String.length json in
  let rec find i =
    if i + lp > lj then None
    else if String.sub json i lp = pat then
      let j = ref (i + lp) in
      while !j < lj && json.[!j] >= '0' && json.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub json (i + lp) (!j - i - lp))
    else find (i + 1)
  in
  find 0

let run_serve ~seed ~seconds ~trace =
  let socket = Filename.concat (Lazy.force work_dir) "serve.sock" in
  (* set-up: generate and encode the requests (Loadgen.mixed_item does
     both), decode and re-encode them, start the server until on_ready *)
  let (bodies, insts, encs, d), gen_s, encode_s, decode_s =
    repeated_setup
      ~teardown:(fun ((_, _, _, d), _, _, _) -> stop_server socket d ~id:0)
      (fun () ->
        let t0 = now () in
        let bodies =
          Array.init serve_items (fun id ->
              Serve.Loadgen.mixed_item ~seed ~m:serve_m ~n:serve_n ~id)
        in
        let t1 = now () in
        let insts =
          Array.map (fun b -> Problems.Instance.decode b.Serve.Frame.instance) bodies
        in
        let t2 = now () in
        let encs = Array.map Problems.Instance.encode insts in
        let t3 = now () in
        let d = start_server ~seed socket in
        ((bodies, insts, encs, d), t1 -. t0, t3 -. t2, t2 -. t1))
  in
  let items =
    Array.mapi
      (fun i (b : Serve.Frame.decide_body) ->
        let inst = insts.(i) in
        check (encs.(i) = b.Serve.Frame.instance) "instance %d does not re-encode to itself" i;
        let expect =
          match (b.Serve.Frame.problem, b.Serve.Frame.algorithm) with
          | Serve.Frame.Core p, Serve.Frame.Fingerprint ->
              if Problems.Decide.decide p inst then Some true else None
          | Serve.Frame.Core p, _ -> Some (Problems.Decide.decide p inst)
          | _ -> None
        in
        { body = b; expect })
      bodies
  in
  metric "problems.gen_ms" "ms" (1e3 *. gen_s);
  metric "problems.encode_ms" "ms" (1e3 *. encode_s);
  metric "problems.decode_ms" "ms" (1e3 *. decode_s);
  let c = Serve.Client.connect socket in
  let errors = ref 0 and undetermined = ref [] in
  let next_id = ref 1 in
  let one () =
    let id = !next_id in
    incr next_id;
    let it = items.(id mod serve_items) in
    let b = it.body in
    let r, wall =
      clock (fun () ->
          Serve.Client.decide c ~id ~problem:b.Serve.Frame.problem
            ~algorithm:b.Serve.Frame.algorithm ~instance:b.Serve.Frame.instance)
    in
    res.attempted <- res.attempted + 1;
    (match r with
    | Error (code, msg) ->
        incr errors;
        fail "serve error %s on request %d: %s" (Serve.Frame.error_code_name code) id msg
    | Ok v -> (
        match it.expect with
        | Some e -> check (v.Serve.Frame.verdict = e) "serve verdict wrong on request %d" id
        | None -> undetermined := (id, v.Serve.Frame.verdict) :: !undetermined));
    wall
  in
  let untraced_seconds = if trace then seconds /. 2.0 else seconds in
  let lat, window = timed_walls ~seconds:untraced_seconds ~min_ops:1 (fun _ -> one ()) in
  let requests = Float.Array.length lat in
  let lat = sorted lat in
  (* traced requests: Gc counters around the window; over seconds the
     runtime's sampled counts cover both domains *)
  let g0 = Gc.quick_stat () in
  let traced_lat, _ =
    if not trace then (Float.Array.create 0, 0.0)
    else timed_walls ~seconds:(seconds /. 2.0) ~min_ops:1 (fun _ -> one ())
  in
  let words =
    let g1 = Gc.quick_stat () in
    let total (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
    (total g1 -. total g0) /. float_of_int (max 1 (Float.Array.length traced_lat))
  in
  let stats = Serve.Client.stats c ~id:!next_id in
  Serve.Client.close c;
  stop_server socket d ~id:(!next_id + 1);
  let shed = Option.value ~default:(-1) (json_int_field stats "shed") in
  check (shed = 0) "server shed %d request(s)" shed;
  (* fingerprint verdicts on no-instances depend on the request id's
     seed: replay each in-process and demand the same verdict *)
  List.iter
    (fun (id, v) ->
      let b = items.(id mod serve_items).body in
      let v', _, _, _ = decide_in_process ~seed ~id b in
      check (v = v') "request %d: served fingerprint verdict differs from in-process replay" id)
    !undetermined;
  let p50 = at 0.5 lat in
  if not trace then begin
    metric "op_ms" "ms" (1e3 *. p50);
    metric "heap_peak_mb" "MB" (heap_peak_mb ());
    Printf.printf "serve: %d requests in %.3f s (%.0f/s), p50 %.1f us, p99 %.1f us\n" requests
      window (float_of_int requests /. window) (p50 *. 1e6) (at 0.99 lat *. 1e6)
  end
  else begin
    (* the same decide calls in-process, without the socket *)
    let sample = min serve_items requests in
    let fp = ref [] and so = ref [] and walls = ref [] and nt = ref (0, 0.0) in
    for id = 1 to sample do
      let b = items.(id mod serve_items).body in
      let t0 = now () in
      let v, audited, r, prm = decide_in_process ~seed ~id b in
      walls := (now () -. t0) :: !walls;
      res.attempted <- res.attempted + 1;
      check audited "in-process replay of request %d failed its audit" id;
      (match items.(id mod serve_items).expect with
      | Some e -> check (v = e) "in-process verdict wrong on request %d" id
      | None -> ());
      let l = Obs.Ledger.Recorder.ledger r in
      match prm with
      | Some (inst, p) ->
          fp := l :: !fp;
          let _, calls, a, b = replay_numtheory inst p in
          nt := (fst !nt + calls, snd !nt +. a +. b)
      | None -> if b.Serve.Frame.algorithm = Serve.Frame.Sort then so := l :: !so
    done;
    let mean_of ls f =
      match ls with
      | [] -> 0.0
      | _ ->
          float_of_int (List.fold_left (fun a l -> a + f l) 0 ls)
          /. float_of_int (List.length ls)
    in
    let mean a = Float.Array.fold_left ( +. ) 0.0 a /. float_of_int (Float.Array.length a) in
    let decide_s = mean (Float.Array.of_list !walls) and latency_s = mean traced_lat in
    let per_req x = x /. float_of_int sample in
    metric "fingerprint.scans" "count" (mean_of !fp (fun l -> l.Obs.Ledger.scans));
    metric "fingerprint.internal_bits" "count"
      (mean_of !fp (fun l -> l.Obs.Ledger.internal_peak));
    metric "extsort.scans" "count" (mean_of !so (fun l -> l.Obs.Ledger.scans));
    metric "extsort.head_moves" "count" (mean_of !so Obs.Ledger.head_moves);
    metric "extsort.reads" "count" (mean_of !so Obs.Ledger.reads);
    metric "extsort.writes" "count" (mean_of !so Obs.Ledger.writes);
    metric "numtheory.pow_mod_calls" "count" (per_req (float_of_int (fst !nt)));
    metric "numtheory.share" "ratio" (per_req (snd !nt) /. latency_s);
    metric "serve.decide_share" "ratio" (decide_s /. latency_s);
    metric "serve.overhead_share" "ratio" (Float.max 0.0 (latency_s -. decide_s) /. latency_s);
    metric "serve.tail_ratio" "ratio" (at 0.99 lat /. p50);
    metric "serve.errors" "count" (float_of_int !errors);
    metric "serve.shed" "count" (float_of_int shed);
    metric "gc.alloc_words" "count" words;
    metric "trace_overhead" "ratio" (at 0.5 (sorted traced_lat) /. p50);
    Printf.printf
      "traced serve: %d + %d requests, p50 %.1f us, mean %.1f us; in-process decide \
       mean %.1f us over %d\n"
      requests (Float.Array.length traced_lat) (p50 *. 1e6) (latency_s *. 1e6) (decide_s *. 1e6)
      sample
  end

(* ------------------------------------------------------------------ *)


let end_to_end = [ "op_ms"; "setup_s"; "heap_peak_mb" ]

(* Per-layer metrics a workload does not cross read 0 — counts and
   shares only: every time-valued one is measured on every workload. *)
let per_layer =
  [
    ("problems.gen_ms", "ms"); ("problems.encode_ms", "ms");
    ("problems.decode_ms", "ms"); ("gc.alloc_words", "count");
    ("trace_overhead", "ratio");
    ("numtheory.pow_mod_calls", "count"); ("numtheory.share", "ratio");
    ("tape.scan_share", "ratio"); ("tape.preload_share", "ratio");
    ("device.syscalls", "count"); ("device.io_read_bytes", "B");
    ("device.io_write_bytes", "B"); ("device.read_bytes_per_cell", "B/cell");
    ("device.tape_cache_ratio", "ratio"); ("device.syscall_share", "ratio");
    ("device.crc_share", "ratio"); ("device.codec_share", "ratio");
    ("device.above_seam_share", "ratio");
    ("extsort.scans", "count"); ("extsort.head_moves", "count");
    ("extsort.reads", "count"); ("extsort.writes", "count");
    ("fingerprint.scans", "count"); ("fingerprint.internal_bits", "count");
    ("listmachine.steps", "count"); ("listmachine.build_share", "ratio");
    ("listmachine.run_view_share", "ratio"); ("core.census_share", "ratio");
    ("core.machine_runs", "count"); ("core.canonical_hits", "count");
    ("core.classes", "count"); ("serve.decide_share", "ratio");
    ("serve.overhead_share", "ratio"); ("serve.tail_ratio", "ratio");
    ("serve.errors", "count");
    ("serve.shed", "count");
  ]

(* A run must end well inside its 180 s: past [limit] it reports
   itself failed instead of hanging (say, on a server that died). *)
let watchdog ~limit =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         fail "run exceeded %d s" limit;
         res.metrics <- [];
         print_result ();
         Unix._exit 0));
  ignore (Unix.alarm limit)

let () =
  let (_, wl), seed, seconds, trace = parse_args () in
  watchdog ~limit:(int_of_float seconds + 150);
  (try
     match wl with
     | Fingerprint d | Sort d -> run_decide wl d ~seed ~seconds ~trace
     | Adversary -> run_adversary ~seed ~seconds ~trace
     | Serve -> run_serve ~seed ~seconds ~trace
   with e -> fail "exception: %s" (Printexc.to_string e));
  (try remove_work_dir ()
   with e -> fail "scratch area not clean: %s" (Printexc.to_string e));
  (* report exactly the metric set of the mode *)
  let wanted = if trace then List.map fst per_layer else end_to_end in
  let measured name = List.exists (fun (n, _, _) -> n = name) res.metrics in
  if res.failed = 0 then
    List.iter
      (fun (name, unit) ->
        if not (measured name) then
          if trace && not (List.mem unit [ "s"; "ms"; "us"; "ns" ]) then metric name unit 0.0
          else fail "metric %s was not measured" name)
      (if trace then per_layer else List.map (fun n -> (n, "")) end_to_end);
  res.metrics <- List.filter (fun (n, _, _) -> List.mem n wanted) res.metrics;
  print_result ();
  exit 0
