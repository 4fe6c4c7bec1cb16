(* The stlb/1 server. One select loop on the main domain owns all
   sockets and all response ordering; decide work — the only expensive
   part — fans out over a Parallel.Pool. Determinism contract: a
   verdict is a function of (cfg.seed, request id) alone, so neither
   the worker count nor the coalescing below can change any response
   byte (exp20 and test_serve pin this). *)

type config = {
  socket : string;
  seed : int;
  domains : int;
  device : Tape.Device.spec option;
  max_scans : int option;
  max_frame : int;
  max_batch : int;
  queue_bound : int;
  max_requests : int option;
}

let default ~socket =
  {
    socket;
    seed = 42;
    domains = 1;
    device = None;
    max_scans = None;
    max_frame = Frame.default_max_frame;
    max_batch = 64;
    queue_bound = 128;
    max_requests = None;
  }

(* ---------------------------------------------------------------- *)
(* request execution                                                 *)

type exec_result = {
  outcome : (Frame.verdict, Frame.error_code * string) result;
  obs : (Obs.Ledger.t * Obs.Audit.outcome) option;
      (* ledger + audit of the run, for --trace emission (main domain) *)
}

let plain v = { outcome = Ok v; obs = None }
let fail code msg = { outcome = Error (code, msg); obs = None }

(* One decide, seeded purely by (server seed, request id). Runs on a
   pool worker: no trace emission, no shared mutable state beyond the
   process atomics. *)
let exec cfg ~id (d : Frame.decide_body) : exec_result =
  match Problems.Instance.decode d.Frame.instance with
  | exception Invalid_argument m -> fail Frame.Malformed ("bad instance: " ^ m)
  | inst -> (
      let st = Parallel.Rng.request_state ~server_seed:cfg.seed ~request_id:id in
      let budget =
        Option.map
          (fun s -> { Tape.Group.max_scans = Some s; max_internal = None })
          cfg.max_scans
      in
      let r =
        Obs.Ledger.Recorder.create ~label:(Frame.algorithm_name d.Frame.algorithm) ()
      in
      let audited ~verdict ~scans ~internal ~tapes spec =
        let l = Obs.Ledger.Recorder.ledger ~n:(Problems.Instance.size inst) r in
        let o = Obs.Audit.check spec l in
        if o.Obs.Audit.ok then
          {
            outcome = Ok { Frame.verdict; audited = true; scans; internal; tapes };
            obs = Some (l, o);
          }
        else
          {
            outcome =
              Error
                ( Frame.Audit_failed,
                  Printf.sprintf "run exceeded the %s budget at N=%d"
                    o.Obs.Audit.spec_name o.Obs.Audit.n );
            obs = Some (l, o);
          }
      in
      let unaudited verdict =
        plain
          { Frame.verdict; audited = false; scans = 0; internal = 0; tapes = 0 }
      in
      try
        match (d.Frame.problem, d.Frame.algorithm) with
        | Frame.Core problem, Frame.Reference ->
            unaudited (Problems.Decide.decide problem inst)
        | Frame.Core problem, Frame.Sort ->
            let v, rep =
              Extsort.decide ?budget ?device:cfg.device ~obs:r problem inst
            in
            audited ~verdict:v ~scans:rep.Extsort.scans
              ~internal:rep.Extsort.register_peak ~tapes:rep.Extsort.tapes
              Obs.Audit.mergesort_spec
        | Frame.Core problem, Frame.Fingerprint ->
            if problem <> Problems.Decide.Multiset_equality then
              fail Frame.Malformed "fingerprint solves multiset-eq only"
            else
              let v, rep, _ = Fingerprint.run ?device:cfg.device ~obs:r st inst in
              audited ~verdict:v ~scans:rep.Fingerprint.scans
                ~internal:rep.Fingerprint.internal_bits ~tapes:rep.Fingerprint.tapes
                Obs.Audit.fingerprint_spec
        | Frame.Core problem, Frame.Nst -> (
            let v, rep = Nst.decide_with_prover ~obs:r problem inst in
            match rep with
            | Some rp ->
                audited ~verdict:v ~scans:rp.Nst.scans
                  ~internal:rp.Nst.internal_registers ~tapes:rp.Nst.tapes
                  Obs.Audit.nst_spec
            | None ->
                (* every branch rejects: nothing ran, nothing to audit *)
                unaudited v)
        (* Query-layer reductions: YES iff the two halves are equal as
           sets (relalg-symdiff, Theorem 11(b)) / iff some set1 string
           is missing from set2 (xpath-filter, Theorem 13). Only the
           reference and sort algorithms apply. *)
        | (Frame.Relalg_symdiff | Frame.Xpath_filter), (Frame.Fingerprint | Frame.Nst)
          ->
            fail Frame.Malformed
              (Frame.problem_name d.Frame.problem
              ^ " accepts only the reference and sort algorithms")
        | Frame.Relalg_symdiff, Frame.Reference ->
            let canon a =
              List.sort_uniq compare
                (Array.to_list (Array.map Util.Bitstring.to_string a))
            in
            unaudited
              (canon (Problems.Instance.xs inst)
              = canon (Problems.Instance.ys inst))
        | Frame.Relalg_symdiff, Frame.Sort ->
            let result, rep =
              Relalg.eval_streaming ?device:cfg.device
                ~observe:(Obs.Ledger.Recorder.observe r)
                (Relalg.instance_db inst)
                (Relalg.symmetric_difference "R1" "R2")
            in
            audited
              ~verdict:(result.Relalg.tuples = [])
              ~scans:rep.Relalg.scans ~internal:rep.Relalg.registers
              ~tapes:rep.Relalg.tapes Obs.Audit.relalg_symdiff_spec
        | Frame.Xpath_filter, Frame.Reference ->
            let mem a x = Array.exists (Util.Bitstring.equal x) a in
            unaudited
              (Array.exists
                 (fun x -> not (mem (Problems.Instance.ys inst) x))
                 (Problems.Instance.xs inst))
        | Frame.Xpath_filter, Frame.Sort ->
            let stream = Xmlq.Doc.serialize (Xmlq.Doc.of_instance inst) in
            let v, rep =
              Xmlq.Stream_filter.figure1_filter
                ~observe:(Obs.Ledger.Recorder.observe r)
                stream
            in
            audited ~verdict:v ~scans:rep.Xmlq.Stream_filter.scans
              ~internal:rep.Xmlq.Stream_filter.registers
              ~tapes:rep.Xmlq.Stream_filter.tapes Obs.Audit.xpath_filter_spec
      with
      | Tape.Budget_exceeded m -> fail Frame.Budget ("budget exceeded: " ^ m)
      | Faults.Retry.Gave_up { label; attempts; _ } ->
          fail Frame.Budget
            (Printf.sprintf "gave up after %d attempts in %s" attempts label)
      | e -> fail Frame.Internal (Printexc.to_string e))

(* ---------------------------------------------------------------- *)
(* server state                                                      *)

type conn = { fd : Unix.file_descr; mutable inbuf : string }

type stats = {
  mutable frames : int;
  mutable pings : int;
  mutable decides : int;
  mutable batch_frames : int;
  mutable batch_items : int;
  mutable stats_reqs : int;
  mutable health_reqs : int;
  mutable yes : int;
  mutable no : int;
  mutable shed : int;  (* OVERLOADED responses (queue or batch bound) *)
  mutable accept_errors : int;  (* accepts failed by EMFILE/ENFILE/ECONNABORTED *)
  mutable malformed : int;  (* broken frames answered with an error *)
  mutable audit_failures : int;
  mutable budget_errors : int;
  mutable internal_errors : int;
  mutable pooled_rounds : int;  (* decide groups coalesced onto the pool *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable max_queue : int;
}

let zero_stats () =
  {
    frames = 0;
    pings = 0;
    decides = 0;
    batch_frames = 0;
    batch_items = 0;
    stats_reqs = 0;
    health_reqs = 0;
    yes = 0;
    no = 0;
    shed = 0;
    accept_errors = 0;
    malformed = 0;
    audit_failures = 0;
    budget_errors = 0;
    internal_errors = 0;
    pooled_rounds = 0;
    bytes_in = 0;
    bytes_out = 0;
    max_queue = 0;
  }

(* deterministic single-line JSON; field order is fixed by the caller *)
let json_of_fields fields =
  let b = Buffer.create 256 in
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (escape k));
      match v with
      | `Int n -> Buffer.add_string b (string_of_int n)
      | `Str s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
      | `Raw s -> Buffer.add_string b s)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let device_kind = function
  | None | Some Tape.Device.Mem -> "mem"
  | Some (Tape.Device.File _) -> "file"
  | Some (Tape.Device.Shard _) -> "shard"

let stats_json st ~since =
  let c = Obs.Counters.diff (Obs.Counters.snapshot ()) ~since in
  json_of_fields
    [
      ("frames", `Int st.frames);
      ("pings", `Int st.pings);
      ("decides", `Int st.decides);
      ("batch_frames", `Int st.batch_frames);
      ("batch_items", `Int st.batch_items);
      ("stats", `Int st.stats_reqs);
      ("health", `Int st.health_reqs);
      ("yes", `Int st.yes);
      ("no", `Int st.no);
      ("shed", `Int st.shed);
      ("accept_errors", `Int st.accept_errors);
      ("malformed", `Int st.malformed);
      ("audit_failures", `Int st.audit_failures);
      ("budget_errors", `Int st.budget_errors);
      ("internal_errors", `Int st.internal_errors);
      ("pooled_rounds", `Int st.pooled_rounds);
      ("bytes_in", `Int st.bytes_in);
      ("bytes_out", `Int st.bytes_out);
      ("max_queue", `Int st.max_queue);
      ( "counters",
        `Raw
          (json_of_fields
             (List.map (fun (k, v) -> (k, `Int v)) (Obs.Counters.to_fields c)))
      );
    ]

let health_json cfg st ~stopping ~queue_depth ~pool =
  let h = Parallel.Pool.health pool in
  json_of_fields
    [
      ("status", `Str (if stopping then "stopping" else "ok"));
      ("protocol_version", `Int Frame.version);
      ("seed", `Int cfg.seed);
      ("domains", `Int cfg.domains);
      ("device", `Str (device_kind cfg.device));
      ("queue_bound", `Int cfg.queue_bound);
      ("max_batch", `Int cfg.max_batch);
      ("queue_depth", `Int queue_depth);
      ("frames", `Int st.frames);
      ("shed", `Int st.shed);
      ( "pool",
        `Raw
          (json_of_fields
             [
               ("chunks_retried", `Int h.Parallel.Pool.chunks_retried);
               ("deadline_overruns", `Int h.Parallel.Pool.deadline_overruns);
               ("degraded_spawns", `Int h.Parallel.Pool.degraded_spawns);
             ]) );
    ]

(* ---------------------------------------------------------------- *)
(* the serve loop                                                    *)

type pending = { pconn : conn; pmsg : Frame.msg }

let write_all st conn s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  try
    let rec go off =
      if off < len then
        let n = Unix.write conn.fd b off (len - off) in
        go (off + n)
    in
    go 0;
    st.bytes_out <- st.bytes_out + len;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let respond st conn ~id response =
  ignore (write_all st conn (Frame.encode { Frame.id; payload = Response response }))

let run ?(on_ready = fun () -> ()) cfg =
  if cfg.domains < 1 then invalid_arg "Server.run: domains must be >= 1";
  (* writes to disconnected clients must raise EPIPE (handled in
     [write_all]), not kill the server with the default SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let pool = Parallel.Pool.create ~domains:cfg.domains () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 16;
  on_ready ();
  let st = zero_stats () in
  let counters_at_start = Obs.Counters.snapshot () in
  let conns : conn list ref = ref [] in
  let queue : pending Queue.t = Queue.create () in
  let stopping = ref false in
  (* false while the descriptor table is full: the listen fd stays out
     of the select set (else it polls readable forever) until a
     connection closes or the loop goes idle *)
  let accepting = ref true in
  let close_conn c =
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
    accepting := true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let accept () =
    match Unix.accept listen_fd with
    | cfd, _ -> conns := { fd = cfd; inbuf = "" } :: !conns
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        st.accept_errors <- st.accept_errors + 1;
        accepting := false
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
        st.accept_errors <- st.accept_errors + 1
  in
  let frame_seen () =
    st.frames <- st.frames + 1;
    match cfg.max_requests with
    | Some n when st.frames >= n -> stopping := true
    | _ -> ()
  in
  (* Pull every complete frame out of a connection's buffer. Broken
     frames are answered loudly; only an unrecoverable length prefix
     (consumed = 0) loses the connection. *)
  let ingest c =
    let rec go pos =
      match Frame.decode ~max_frame:cfg.max_frame c.inbuf ~pos with
      | Frame.Incomplete ->
          c.inbuf <- String.sub c.inbuf pos (String.length c.inbuf - pos)
      | Frame.Complete (msg, consumed) ->
          frame_seen ();
          if Queue.length queue >= cfg.queue_bound then begin
            st.shed <- st.shed + 1;
            respond st c ~id:msg.Frame.id
              (Frame.Error
                 {
                   code = Frame.Overloaded;
                   message =
                     Printf.sprintf "queue full (%d pending)" (Queue.length queue);
                 })
          end
          else begin
            Queue.add { pconn = c; pmsg = msg } queue;
            st.max_queue <- max st.max_queue (Queue.length queue)
          end;
          go (pos + consumed)
      | Frame.Broken { code; message; consumed } ->
          frame_seen ();
          st.malformed <- st.malformed + 1;
          let id = Option.value (Frame.peek_id c.inbuf ~pos) ~default:0 in
          respond st c ~id (Frame.Error { code; message });
          if consumed = 0 then begin
            c.inbuf <- "";
            close_conn c
          end
          else go (pos + consumed)
    in
    go 0
  in
  let read_some c =
    let chunk = Bytes.create 65536 in
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn c
    | n ->
        st.bytes_in <- st.bytes_in + n;
        c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 n;
        ingest c
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Process the drained queue: coalesce every queued decide item —
     singleton DECIDEs and BATCH items alike — into one pool round,
     then write responses in arrival order. *)
  let process_queue () =
    let entries = List.of_seq (Queue.to_seq queue) in
    Queue.clear queue;
    (* mod 2^62: masking with max_id (= 2^62 - 1) also clears the sign
       bit if base + i overflowed the native int *)
    let effective_id base i = (base + i) land Frame.max_id in
    let works = ref [] in
    List.iteri
      (fun ei p ->
        match p.pmsg.Frame.payload with
        | Frame.Request (Frame.Decide d) ->
            works := (ei, 0, p.pmsg.Frame.id, d) :: !works
        | Frame.Request (Frame.Batch items)
          when List.length items <= cfg.max_batch ->
            List.iteri
              (fun i d ->
                works := (ei, i, effective_id p.pmsg.Frame.id i, d) :: !works)
              items
        | _ -> ())
      entries;
    let works = Array.of_list (List.rev !works) in
    let run_one (_, _, id, d) = exec cfg ~id d in
    let results =
      if Array.length works > 1 && cfg.domains > 1 then begin
        st.pooled_rounds <- st.pooled_rounds + 1;
        Parallel.Pool.map pool run_one works
      end
      else Array.map run_one works
    in
    (* ledger/audit trace events: main domain, arrival order *)
    Array.iter
      (fun r ->
        match r.obs with
        | Some (l, o) ->
            Obs.Trace.ledger_current l;
            Obs.Trace.audit_current o
        | None -> ())
      results;
    let by_slot = Hashtbl.create 16 in
    Array.iteri
      (fun k (ei, i, _, _) -> Hashtbl.replace by_slot (ei, i) results.(k))
      works;
    let account r =
      match r.outcome with
      | Ok v ->
          if v.Frame.verdict then st.yes <- st.yes + 1 else st.no <- st.no + 1
      | Error (Frame.Audit_failed, _) -> st.audit_failures <- st.audit_failures + 1
      | Error (Frame.Budget, _) -> st.budget_errors <- st.budget_errors + 1
      | Error (Frame.Internal, _) -> st.internal_errors <- st.internal_errors + 1
      | Error _ -> ()
    in
    List.iteri
      (fun ei p ->
        let id = p.pmsg.Frame.id in
        let reply = respond st p.pconn ~id in
        match p.pmsg.Frame.payload with
        | Frame.Request Frame.Ping ->
            st.pings <- st.pings + 1;
            reply Frame.Pong
        | Frame.Request Frame.Stats ->
            st.stats_reqs <- st.stats_reqs + 1;
            reply (Frame.Stats_json (stats_json st ~since:counters_at_start))
        | Frame.Request Frame.Health ->
            st.health_reqs <- st.health_reqs + 1;
            reply
              (Frame.Health_json
                 (health_json cfg st ~stopping:!stopping
                    ~queue_depth:(Queue.length queue) ~pool))
        | Frame.Request Frame.Shutdown ->
            stopping := true;
            reply Frame.Bye
        | Frame.Request (Frame.Decide _) -> (
            st.decides <- st.decides + 1;
            let r = Hashtbl.find by_slot (ei, 0) in
            account r;
            match r.outcome with
            | Ok v -> reply (Frame.Verdict v)
            | Error (code, message) -> reply (Frame.Error { code; message }))
        | Frame.Request (Frame.Batch items) ->
            st.batch_frames <- st.batch_frames + 1;
            if List.length items > cfg.max_batch then begin
              st.shed <- st.shed + 1;
              reply
                (Frame.Error
                   {
                     code = Frame.Overloaded;
                     message =
                       Printf.sprintf "batch of %d exceeds max %d"
                         (List.length items) cfg.max_batch;
                   })
            end
            else begin
              st.batch_items <- st.batch_items + List.length items;
              let rs = List.mapi (fun i _ -> Hashtbl.find by_slot (ei, i)) items in
              List.iter account rs;
              match
                List.find_map
                  (fun (i, r) ->
                    match r.outcome with
                    | Error (code, m) ->
                        Some (code, Printf.sprintf "item %d: %s" i m)
                    | Ok _ -> None)
                  (List.mapi (fun i r -> (i, r)) rs)
              with
              | Some (code, message) -> reply (Frame.Error { code; message })
              | None ->
                  reply
                    (Frame.Batch_verdict
                       (List.map
                          (fun r ->
                            match r.outcome with
                            | Ok v -> v
                            | Error _ -> assert false)
                          rs))
            end
        | Frame.Response _ ->
            reply
              (Frame.Error
                 {
                   code = Frame.Bad_type;
                   message = "expected a request, got a response frame";
                 }))
      entries
  in
  let rec loop () =
    if !stopping && Queue.is_empty queue then ()
    else begin
      let fds = List.map (fun c -> c.fd) !conns in
      let fds = if !accepting then listen_fd :: fds else fds in
      (match Unix.select fds [] [] 0.5 with
      | [], _, _ -> accepting := true
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd == listen_fd then accept ()
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | Some c -> read_some c
                | None -> ())
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not (Queue.is_empty queue) then process_queue ();
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
    loop
