module B = Util.Bitstring
module P = Util.Permutation
module I = Problems.Instance
module G = Problems.Generators
module Nlm = Listmachine.Nlm
module Skeleton = Listmachine.Skeleton

type outcome =
  | Fooled of {
      input : I.t;
      i0 : int;
      skeleton_classes : int;
      yes_acceptance : float;
      choice_seed : int;
    }
  | Not_fooled of {
      reason : string;
      yes_acceptance : float;
      skeleton_classes : int;
    }
  | Contract_violated of { yes_acceptance : float }

(* A deterministic pseudo-random choice function: the "fixed sequence c"
   of Lemma 26, regenerable from its seed (splitmix64-style mixing). *)
let choice_fn ~seed ~num_choices step =
  let z = ref (seed + (step * 0x9E3779B9) + 0x85EBCA6B) in
  z := (!z lxor (!z lsr 16)) * 0x45D9F3B;
  z := (!z lxor (!z lsr 16)) * 0x45D9F3B;
  z := !z lxor (!z lsr 16);
  (!z land max_int) mod num_choices

let values_of inst = Array.append (I.xs inst) (I.ys inst)

(* View runs: the skeleton pipeline never needs full configuration
   snapshots, and the in-place runner allocates O(t) per step instead of
   O(list length) — which is what lets the census sweeps actually scale
   over domains instead of contending on the major heap. *)
let run_with ~fuel machine ~seed inst =
  Nlm.run_view ~fuel machine ~values:(values_of inst)
    ~choices:(choice_fn ~seed ~num_choices:machine.Nlm.num_choices)

(* Every random draw the attack makes comes from a splitmix64 stream
   keyed on (root, index): samples at indices [0 .. yes_samples-1],
   candidate choice seeds after them, resampling states after those. So
   the whole attack is a function of the root seed — independent of the
   pool's worker count, and replayable by passing [~seed]. *)
let trial_index ~yes_samples t = yes_samples + t
let resample_index ~yes_samples ~choice_trials n = yes_samples + choice_trials + n

let sample_at ~root space i =
  G.Checkphi.yes (Parallel.Rng.state ~seed:root ~index:i) space

let trial_seeds ~machine ~root ~yes_samples ~choice_trials =
  if machine.Nlm.num_choices = 1 then [| 0 |]
  else
    Array.init choice_trials (fun t ->
        if t = 0 then 0
        else (Parallel.Rng.derive ~seed:root ~index:(trial_index ~yes_samples t)).(0))

(* ------------------------------------------------------------------ *)
(* Canonical-form reduction.

   The machines the adversary targets observe their input only through
   value-equality tests (the [Plan] comparisons are [B.equal]), and
   skeleton cells store input *positions*, never values. So the run —
   acceptance, trace, skeleton — is a function of the order/equality
   pattern of the 2m input values and the choice sequence alone, and
   any value renaming that preserves that pattern yields literally the
   same skeleton. Replacing each value by its dense rank picks one
   representative per orbit of that symmetry; censusing the
   representative once stands for every sample in the orbit. On the
   CHECK-phi space all yes-instances share a single pattern (disjoint
   intervals, ties exactly at the (i, phi(i)) pairs), so the per-seed
   sweep collapses from [yes_samples] machine runs to one — the
   asymptotic win that makes m=64 a sub-second census. *)

let rank_map values =
  let sorted = Array.copy values in
  Array.sort B.compare sorted;
  let tbl = Hashtbl.create (2 * Array.length values) in
  let next = ref 0 in
  Array.iter
    (fun v ->
      let s = B.to_string v in
      if not (Hashtbl.mem tbl s) then begin
        Hashtbl.add tbl s !next;
        incr next
      end)
    sorted;
  (tbl, !next)

let canonical_key inst =
  let values = values_of inst in
  let tbl, _ = rank_map values in
  let buf = Buffer.create (4 * Array.length values) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int (Hashtbl.find tbl (B.to_string v)));
      Buffer.add_char buf ',')
    values;
  Buffer.contents buf

let canonicalize inst =
  let values = values_of inst in
  let tbl, distinct = rank_map values in
  let width =
    let rec bits w lim = if lim >= distinct then w else bits (w + 1) (2 * lim) in
    bits 1 2
  in
  let canon =
    Array.map (fun v -> B.of_int ~width (Hashtbl.find tbl (B.to_string v))) values
  in
  let m = Array.length values / 2 in
  I.make (Array.sub canon 0 m) (Array.sub canon m m)

(* The memoizing machine runner: one entry per (choice seed, canonical
   key), holding (accepted, skeleton-if-accepted). With [canon:false]
   every call is a real run — the escape hatch for machines that
   inspect value *content* (none in this tree do). *)
type runner = {
  r_machine : B.t Nlm.t;
  r_fuel : int;
  r_canon : bool;
  r_memo : (int * string, bool * Skeleton.t option) Hashtbl.t;
  mutable r_runs : int;
  mutable r_canon_hits : int;
}

let make_runner ~machine ~fuel ~canon =
  {
    r_machine = machine;
    r_fuel = fuel;
    r_canon = canon;
    r_memo = Hashtbl.create 64;
    r_runs = 0;
    r_canon_hits = 0;
  }

let raw_run r ~seed inst =
  let tr = run_with ~fuel:r.r_fuel r.r_machine ~seed inst in
  (tr.Nlm.vaccepted, if tr.Nlm.vaccepted then Some (Skeleton.of_views tr) else None)

let run_memo r ~seed inst =
  if not r.r_canon then begin
    r.r_runs <- r.r_runs + 1;
    raw_run r ~seed inst
  end
  else begin
    let key = canonical_key inst in
    match Hashtbl.find_opt r.r_memo (seed, key) with
    | Some res ->
        r.r_canon_hits <- r.r_canon_hits + 1;
        Obs.Counters.add_census_canonical_hits 1;
        res
    | None ->
        r.r_runs <- r.r_runs + 1;
        let res = raw_run r ~seed (canonicalize inst) in
        Hashtbl.replace r.r_memo (seed, key) res;
        res
  end

(* One census sweep: run every instance under the fixed choice seed.
   Only the first occurrence of each canonical class actually runs (and
   those fan out over the pool — the closure is pure; counters are
   settled on the calling domain afterwards). *)
let sweep r pool ~seed insts =
  if not r.r_canon then begin
    let results = Parallel.Pool.map pool (fun inst -> raw_run r ~seed inst) insts in
    r.r_runs <- r.r_runs + Array.length insts;
    results
  end
  else begin
    let keys = Array.map canonical_key insts in
    let queued = Hashtbl.create 16 in
    let fresh = ref [] in
    Array.iteri
      (fun i key ->
        if (not (Hashtbl.mem r.r_memo (seed, key))) && not (Hashtbl.mem queued key)
        then begin
          Hashtbl.add queued key ();
          fresh := (key, insts.(i)) :: !fresh
        end)
      keys;
    let fresh = Array.of_list (List.rev !fresh) in
    let results =
      Parallel.Pool.map pool
        (fun (_, inst) -> raw_run r ~seed (canonicalize inst))
        fresh
    in
    Array.iteri
      (fun j (key, _) -> Hashtbl.replace r.r_memo (seed, key) results.(j))
      fresh;
    r.r_runs <- r.r_runs + Array.length fresh;
    let memoized = Array.length insts - Array.length fresh in
    r.r_canon_hits <- r.r_canon_hits + memoized;
    Obs.Counters.add_census_canonical_hits memoized;
    Array.map (fun key -> Hashtbl.find r.r_memo (seed, key)) keys
  end

(* ------------------------------------------------------------------ *)

type census = {
  outcome : outcome;
  fingerprint : int64;
  chosen_seed : int;
  hits : int;
  samples : int;
  classes : int;
  canonical_hits : int;
  machine_runs : int;
}

(* The outcome fingerprint: FNV-1a 64 over a canonical rendering of the
   verdict and the census summary. Every field in the rendering is
   invariant under worker count and canonical reduction, so equality of
   fingerprints is exactly the bit-identity those levers promise. *)
let fingerprint_of ~root ~m ~n ~chosen_seed ~hits ~samples ~classes outcome =
  let body =
    match outcome with
    | Fooled { input; i0; _ } ->
        Printf.sprintf "fooled i0=%d input=%s" i0 (I.encode input)
    | Not_fooled { reason; _ } -> Printf.sprintf "not-fooled reason=%s" reason
    | Contract_violated _ -> "contract-violated"
  in
  Skeleton.fnv64
    (Printf.sprintf "stlb-census root=%d m=%d n=%d seed=%d hits=%d/%d classes=%d %s"
       root m n chosen_seed hits samples classes body)

(* a scripted machine visits one state per step, so the budget must
   cover the script (the m = 128 staircase alone plans past 200k steps) *)
let default_fuel machine = max 200_000 (2 * machine.Nlm.state_count)

(* Steps 4-5: two members [v, w] of the class ζ that differ only in the
   value at x-position [i0] (hence also at y-position phi(i0)). First
   look for a sampled pair, then actively resample the i0 value of the
   first member, keeping a variant whose run accepts with skeleton ζ. *)
let find_pair r ~space ~root ~seed ~yes_samples ~choice_trials ~resample_tries
    ~zeta ~members i0 =
  let key_of inst =
    let buf = Buffer.create 64 in
    Array.iteri
      (fun idx x ->
        if idx <> i0 - 1 then begin
          Buffer.add_string buf (B.to_string x);
          Buffer.add_char buf '#'
        end)
      (I.xs inst);
    Buffer.contents buf
  in
  let first_with = Hashtbl.create 16 in
  let sampled =
    List.find_map
      (fun inst ->
        let key = key_of inst in
        match Hashtbl.find_opt first_with key with
        | Some a when not (B.equal (I.x a i0) (I.x inst i0)) -> Some (a, inst)
        | Some _ -> None
        | None ->
            Hashtbl.add first_with key inst;
            None)
      members
  in
  match sampled with
  | Some p -> Some p
  | None ->
      let witness = List.hd members in
      let phi = G.Checkphi.phi space in
      let inv = G.Checkphi.inv_phi space in
      let m = P.size phi in
      let intervals = G.Checkphi.intervals space in
      let rec try_ n =
        if n > resample_tries then None
        else
          let rng =
            Parallel.Rng.state ~seed:root
              ~index:(resample_index ~yes_samples ~choice_trials n)
          in
          let fresh = Problems.Intervals.random_element rng intervals (P.apply phi i0) in
          if B.equal fresh (I.x witness i0) then try_ (n + 1)
          else begin
            let xs = I.xs witness in
            xs.(i0 - 1) <- fresh;
            let ys = Array.init m (fun j0 -> xs.(P.apply inv (j0 + 1) - 1)) in
            let candidate = I.make xs ys in
            match run_memo r ~seed candidate with
            | true, Some sk when Skeleton.equal sk zeta -> Some (witness, candidate)
            | _ -> try_ (n + 1)
          end
      in
      try_ 1

let attack_census ?pool ?seed ?(canon = true) st ~space ~machine
    ?(yes_samples = 48) ?(choice_trials = 8) ?(resample_tries = 32) ?fuel () =
  let root =
    match seed with Some s -> s | None -> Parallel.Rng.seed_of_state st
  in
  let fuel = match fuel with Some f -> f | None -> default_fuel machine in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let phi = G.Checkphi.phi space in
  let m = P.size phi in
  let n = Problems.Intervals.n (G.Checkphi.intervals space) in
  let insts = Array.init yes_samples (sample_at ~root space) in
  let seeds = trial_seeds ~machine ~root ~yes_samples ~choice_trials in
  let r = make_runner ~machine ~fuel ~canon in
  (* Steps 1-2: sweep the samples under every candidate choice seed and
     intern each accepted skeleton; [rows.(t).(i)] is [Some (class id,
     representative)] iff sample [i] is accepted under [seeds.(t)]. *)
  let tbl = Skeleton.Intern.create () in
  let rows =
    Array.map
      (fun seed ->
        Array.map
          (function
            | true, Some sk -> Some (Skeleton.Intern.intern tbl sk)
            | _ -> None)
          (sweep r pool ~seed insts))
      seeds
  in
  let hits =
    Array.map
      (Array.fold_left (fun a c -> if Option.is_some c then a + 1 else a) 0)
      rows
  in
  (* Lemma 26: the first candidate seed with strictly the most hits *)
  let best = ref 0 in
  Array.iteri (fun t h -> if h > hits.(!best) then best := t) hits;
  let seed = seeds.(!best) and row = rows.(!best) and hits = hits.(!best) in
  let yes_acceptance = float_of_int hits /. float_of_int yes_samples in
  let outcome, classes =
    if 2 * hits < yes_samples then (Contract_violated { yes_acceptance }, 0)
    else begin
      (* Step 5: the census under [seed]. ζ is the most popular class,
         the first seen in sample order on ties. *)
      let sizes = Hashtbl.create 16 and seen = ref [] in
      Array.iter
        (function
          | None -> ()
          | Some (id, rep) -> (
              match Hashtbl.find_opt sizes id with
              | Some k -> Hashtbl.replace sizes id (k + 1)
              | None ->
                  Hashtbl.add sizes id 1;
                  seen := (id, rep) :: !seen))
        row;
      let classes = Hashtbl.length sizes in
      let zeta_id, zeta =
        match List.rev !seen with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun ((bid, _) as b) ((id, _) as c) ->
                if Hashtbl.find sizes id > Hashtbl.find sizes bid then c else b)
              first rest
      in
      let not_fooled reason =
        Not_fooled { reason; yes_acceptance; skeleton_classes = classes }
      in
      let outcome =
        match Skeleton.uncompared_phi_indices zeta ~m ~phi with
        | [] -> not_fooled "every pair (i, m+phi(i)) is compared in the skeleton"
        | i0 :: _ -> (
            let members =
              List.filter_map
                (fun i ->
                  match row.(i) with
                  | Some (id, _) when id = zeta_id -> Some insts.(i)
                  | _ -> None)
                (List.init yes_samples Fun.id)
            in
            match
              find_pair r ~space ~root ~seed ~yes_samples ~choice_trials
                ~resample_tries ~zeta ~members i0
            with
            | None ->
                not_fooled
                  (Printf.sprintf
                     "no same-skeleton pair differing only at i0=%d found" i0)
            | Some (v, w) ->
                (* Step 6 (Lemma 34): cross the halves. *)
                let u = I.make (I.xs v) (I.ys w) in
                let acc, _ = run_memo r ~seed u in
                if acc && not (G.Checkphi.is_yes space u) then
                  Fooled
                    {
                      input = u;
                      i0;
                      skeleton_classes = classes;
                      yes_acceptance;
                      choice_seed = seed;
                    }
                else
                  not_fooled
                    (if acc then "composed input unexpectedly a yes-instance"
                     else "machine rejected the composed input"))
      in
      (outcome, classes)
    end
  in
  {
    outcome;
    fingerprint =
      fingerprint_of ~root ~m ~n ~chosen_seed:seed ~hits ~samples:yes_samples
        ~classes outcome;
    chosen_seed = seed;
    hits;
    samples = yes_samples;
    classes;
    canonical_hits = r.r_canon_hits;
    machine_runs = r.r_runs;
  }

let attack ?pool ?seed ?canon st ~space ~machine ?yes_samples ?choice_trials
    ?resample_tries ?fuel () =
  (attack_census ?pool ?seed ?canon st ~space ~machine ?yes_samples
     ?choice_trials ?resample_tries ?fuel ())
    .outcome

let verify_fooled ~space ~machine outcome =
  match outcome with
  | Fooled f ->
      G.Checkphi.member space f.input
      && (not (G.Checkphi.is_yes space f.input))
      && (run_with ~fuel:(default_fuel machine) machine ~seed:f.choice_seed f.input)
           .Nlm.vaccepted
  | Not_fooled _ | Contract_violated _ -> false
