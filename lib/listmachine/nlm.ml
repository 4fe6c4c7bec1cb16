type sym = In of int | Ch of int | St of int | Open | Close

(* Cells as hash-consed DAGs.

   A written cell is the tuple y = a⟨x_1⟩…⟨x_t⟩⟨c⟩ of Definition 14; the
   components x_τ are the cells under the heads when y was written. The
   flat-string representation copies those components, so cell sizes
   compound with every reversal (the t^O(r) cell-size bound of Lemma 30
   is exponential in r) and machines beyond m=16 never finish a run.
   Representing y as a node that *references* its components keeps every
   write O(t), which is also the faithful reading of the definition: the
   machine writes a tuple, not a transcription.

   Each node memoizes, at construction time:
   - [len]: the flattened symbol count (saturating; the honest Lemma 30
     measure, reported by {!cell_size});
   - [hash]/[skhash]: rolling hashes of the flattened symbol string,
     choice-sensitive and choice-blind (skeletons wildcard [Ch _]), with
     [hpow] = MULT^len so concatenations combine in O(1);
   - [inputs]: the sorted distinct input positions occurring anywhere in
     the cell — membership tests (planner checks, skeleton position
     sets) are a binary search instead of a walk of the expansion.

   Hashes are functions of the flattened string only, so a [Syms] cell
   and a [Written] cell with the same expansion hash alike, and every
   hash is deterministic across runs and domains. The [uid] is NOT: it
   is a process-global stamp used for physical-identity fast paths and
   comparison memo tables; it never reaches any output. *)

type cell = {
  uid : int;
  shape : shape;
  len : int;
  hash : int;
  skhash : int;
  hpow : int;
  inputs : int array;
}

and shape = Syms of sym array | Written of { state : int; comps : cell array; choice : int }

let cell_shape c = c.shape
let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* rolling (Horner) hash: H(s·t) = H(s)*MULT^|t| + H(t), on wrapping
   native ints. MULT odd so powers never vanish. *)
let mult = 0x5851F42D4C957F2D

let sym_code = function
  | In i -> (i lsl 3) lor 1
  | Ch c -> (c lsl 3) lor 2
  | St a -> (a lsl 3) lor 3
  | Open -> 4
  | Close -> 5

(* choice-blind code: every [Ch _] collapses to the wildcard *)
let sym_skcode = function Ch _ -> 2 | s -> sym_code s

let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* Union of sorted distinct arrays, sorted distinct. This runs once per
   written cell — millions of times in an adversary sweep — so it is a
   k-way merge over the already-sorted inputs (no re-sort) with two
   sharing fast paths: if every array is a subset of the largest, the
   largest is returned physically (the common case once a run's cells
   have accumulated most positions), and the merge buffer is returned
   as-is when nothing was deduplicated. *)
let merge_inputs arrays =
  let arrays = Array.of_list arrays in
  let k = Array.length arrays in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
  if total = 0 then [||]
  else begin
    let big = ref 0 in
    for i = 1 to k - 1 do
      if Array.length arrays.(i) > Array.length arrays.(!big) then big := i
    done;
    let big = arrays.(!big) in
    let contains a x =
      let lo = ref 0 and hi = ref (Array.length a) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < x then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length a && a.(!lo) = x
    in
    let subsumed =
      Array.for_all
        (fun a -> a == big || Array.for_all (fun x -> contains big x) a)
        arrays
    in
    if subsumed then big
    else begin
      let idx = Array.make k 0 in
      let buf = Array.make total 0 in
      let n = ref 0 in
      let last = ref min_int in
      let continue_ = ref true in
      while !continue_ do
        (* smallest head across the k cursors *)
        let best = ref (-1) in
        for i = 0 to k - 1 do
          if idx.(i) < Array.length arrays.(i) then
            let x = arrays.(i).(idx.(i)) in
            if !best < 0 || x < arrays.(!best).(idx.(!best)) then best := i
        done;
        if !best < 0 then continue_ := false
        else begin
          let x = arrays.(!best).(idx.(!best)) in
          idx.(!best) <- idx.(!best) + 1;
          if x <> !last then begin
            buf.(!n) <- x;
            incr n;
            last := x
          end
        end
      done;
      if !n = total then buf else Array.sub buf 0 !n
    end
  end

let cell_of_sym_array arr =
  let len = Array.length arr in
  let hash = ref 0 and skhash = ref 0 and hpow = ref 1 in
  let inputs = ref [] in
  Array.iter
    (fun s ->
      hash := (!hash * mult) + sym_code s;
      skhash := (!skhash * mult) + sym_skcode s;
      hpow := !hpow * mult;
      match s with In i -> inputs := i :: !inputs | Ch _ | St _ | Open | Close -> ())
    arr;
  {
    uid = fresh_uid ();
    shape = Syms (Array.copy arr);
    len;
    hash = !hash;
    skhash = !skhash;
    hpow = !hpow;
    inputs = Array.of_list (List.sort_uniq Int.compare !inputs);
  }

let cell_of_syms syms = cell_of_sym_array (Array.of_list syms)

(* flattening of a written cell: a ⟨x_1⟩ … ⟨x_t⟩ ⟨c⟩ *)
let written_cell ~state ~comps ~choice =
  let h = ref (sym_code (St state)) and skh = ref (sym_skcode (St state)) in
  let pow = ref mult in
  let len = ref 1 in
  let app_sym code skcode =
    h := (!h * mult) + code;
    skh := (!skh * mult) + skcode;
    pow := !pow * mult;
    len := sat_add !len 1
  in
  let app_cell c =
    h := (!h * c.hpow) + c.hash;
    skh := (!skh * c.hpow) + c.skhash;
    pow := !pow * c.hpow;
    len := sat_add !len c.len
  in
  let copen = sym_code Open and cclose = sym_code Close in
  Array.iter
    (fun c ->
      app_sym copen copen;
      app_cell c;
      app_sym cclose cclose)
    comps;
  app_sym copen copen;
  app_sym (sym_code (Ch choice)) (sym_skcode (Ch choice));
  app_sym cclose cclose;
  {
    uid = fresh_uid ();
    shape = Written { state; comps = Array.copy comps; choice };
    len = !len;
    hash = !h;
    skhash = !skh;
    hpow = !pow;
    inputs = merge_inputs (Array.to_list (Array.map (fun c -> c.inputs) comps));
  }

(* -------------------------------------------------------------- *)
(* Flattened views. These walk the full expansion of the DAG — cost
   proportional to [cell_size], i.e. potentially exponential in the
   reversal count. They exist for rendering, tests and the merge-lemma
   position sequences of small machines; nothing on the adversary's hot
   path flattens. *)

let fold_syms f init cell =
  let rec go acc cell =
    match cell.shape with
    | Syms arr -> Array.fold_left f acc arr
    | Written { state; comps; choice } ->
        let acc = f acc (St state) in
        let acc =
          Array.fold_left
            (fun acc c -> f (go (f acc Open) c) Close)
            acc comps
        in
        f (f (f acc Open) (Ch choice)) Close
  in
  go init cell

let iter_syms f cell = fold_syms (fun () s -> f s) () cell

let syms_of_cell cell = List.rev (fold_syms (fun acc s -> s :: acc) [] cell)

exception Enough

(* first symbols of the expansion, without materializing it *)
let cell_prefix_syms cell n =
  let acc = ref [] and k = ref 0 in
  (try
     iter_syms
       (fun s ->
         if !k >= n then raise Enough;
         acc := s :: !acc;
         incr k)
       cell
   with Enough -> ());
  List.rev !acc

(* last symbols of the expansion, by a mirrored walk *)
let cell_suffix_syms cell n =
  let acc = ref [] and k = ref 0 in
  let push s =
    if !k >= n then raise Enough;
    acc := s :: !acc;
    incr k
  in
  let rec go cell =
    match cell.shape with
    | Syms arr ->
        for i = Array.length arr - 1 downto 0 do
          push arr.(i)
        done
    | Written { state; comps; choice } ->
        push Close;
        push (Ch choice);
        push Open;
        for i = Array.length comps - 1 downto 0 do
          push Close;
          go comps.(i);
          push Open
        done;
        push (St state)
  in
  (try go cell with Enough -> ());
  !acc

(* -------------------------------------------------------------- *)
(* Equality. The cheap rejections are [len] and the content hashes; the
   structural descent memoizes proven-equal uid pairs so shared
   substructure — ubiquitous between entries of one run, absent across
   runs — is never re-traversed. Mixed Syms/Written comparisons fall
   back to a streaming walk of both expansions (bounded by [len], which
   the guard has already forced equal). *)

let stream_equal ~skblind a b =
  (* compare flattened expansions symbol by symbol via two explicit
     continuation stacks *)
  let code = if skblind then sym_skcode else sym_code in
  let module S = struct
    type frame = FSym of sym | FCell of cell
  end in
  let open S in
  let next stack =
    (* pop until a symbol is produced *)
    let rec go = function
      | [] -> (None, [])
      | FSym s :: rest -> (Some s, rest)
      | FCell c :: rest -> (
          match c.shape with
          | Syms arr ->
              go (Array.fold_right (fun s acc -> FSym s :: acc) arr rest)
          | Written { state; comps; choice } ->
              let tail =
                Array.fold_right
                  (fun comp acc -> FSym Open :: FCell comp :: FSym Close :: acc)
                  comps
                  (FSym Open :: FSym (Ch choice) :: FSym Close :: rest)
              in
              go (FSym (St state) :: tail))
    in
    go stack
  in
  let rec loop sa sb =
    match (next sa, next sb) with
    | (None, _), (None, _) -> true
    | (Some x, sa'), (Some y, sb') -> code x = code y && loop sa' sb'
    | (None, _), (Some _, _) | (Some _, _), (None, _) -> false
  in
  loop [ FCell a ] [ FCell b ]

let cell_equal_memo ~skblind memo =
  let hash_of c = if skblind then c.skhash else c.hash in
  let rec eq a b =
    a == b
    || a.uid = b.uid
    || (a.len = b.len
       && hash_of a = hash_of b
       &&
       let key = if a.uid < b.uid then (a.uid, b.uid) else (b.uid, a.uid) in
       match Hashtbl.find_opt memo key with
       | Some r -> r
       | None ->
           let r =
             match (a.shape, b.shape) with
             | Syms xs, Syms ys ->
                 let code = if skblind then sym_skcode else sym_code in
                 Array.length xs = Array.length ys
                 && Array.for_all2 (fun x y -> code x = code y) xs ys
             | Written wa, Written wb ->
                 wa.state = wb.state
                 && (skblind || wa.choice = wb.choice)
                 && Array.length wa.comps = Array.length wb.comps
                 && Array.for_all2 eq wa.comps wb.comps
             | Syms _, Written _ | Written _, Syms _ ->
                 stream_equal ~skblind a b
           in
           Hashtbl.replace memo key r;
           r)
  in
  eq

let cell_equal a b =
  a == b || (a.len = b.len && a.hash = b.hash && cell_equal_memo ~skblind:false (Hashtbl.create 16) a b)

let cell_sk_equal a b =
  a == b
  || (a.len = b.len && a.skhash = b.skhash && cell_equal_memo ~skblind:true (Hashtbl.create 16) a b)

let cell_sk_equal_memo memo = cell_equal_memo ~skblind:true memo
let cell_hash c = c.hash
let cell_sk_hash c = c.skhash
let cell_uid c = c.uid
let merge_input_positions arrays = merge_inputs (Array.to_list arrays)

let cell_mentions c i =
  let arr = c.inputs in
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr && arr.(!lo) = i

let cell_input_positions c = c.inputs

type movement = { dir : int; move : bool }
type transition = { next_state : int; movements : movement array }

type 'v alpha =
  values:'v array -> state:int -> cells:cell array -> choice:int -> transition

type 'v t = {
  lists : int;
  input_length : int;
  num_choices : int;
  state_count : int;
  initial : int;
  is_final : int -> bool;
  is_accepting : int -> bool;
  alpha : 'v alpha;
  name : string;
}

let make ~name ~lists ~input_length ~num_choices ~state_count ~initial ~is_final
    ~is_accepting ~alpha =
  if lists < 1 then invalid_arg "Nlm.make: lists >= 1";
  if input_length < 0 then invalid_arg "Nlm.make: input_length >= 0";
  if num_choices < 1 then invalid_arg "Nlm.make: num_choices >= 1";
  if state_count < 1 then invalid_arg "Nlm.make: state_count >= 1";
  if initial < 0 then invalid_arg "Nlm.make: initial state";
  {
    lists;
    input_length;
    num_choices;
    state_count;
    initial;
    is_final;
    is_accepting;
    alpha;
    name;
  }

type config = {
  state : int;
  pos : int array;
  head_dir : int array;
  contents : cell array array;
  revs : int array;
  ids : int array array;
  next_id : int;
}

let empty_cell = cell_of_sym_array [| Open; Close |]

(* -------------------------------------------------------------- *)
(* The mutable engine. [step] below is the persistent Definition 24(c)
   transcription: it copies the spliced list arrays, O(list length) per
   step. Runs that only need local views (the census) and the [Plan]
   pilot instead drive this engine, which applies the same step in
   place. Each list is a gap buffer whose gap sits just before the head
   cell: slots [0, lo) hold cells 1..lo, slots [hi, cap) hold cells
   lo+1..len, and the head is cell lo+1 in slot [hi]. Every Definition
   24(c) case is then O(1): a move shifts one cell across the gap, an
   overwrite is one store, insert-before fills the gap's left end and
   insert-after slides the head cell one slot left to make room behind
   it. When the gap closes the buffer doubles, so growth is amortized
   O(1) per insert. Nothing shifts a list's tail: a blit into a
   major-heap array pays a write barrier per cell, and a runner that
   shifted tails on every splice went quadratic on census-sized lists. *)

module Engine = struct
  type glist = {
    mutable gcells : cell array;
    mutable gids : int array;
    mutable lo : int;
    mutable hi : int;
    mutable gdir : int;
    mutable grevs : int;
  }

  type t = {
    glists : glist array;
    mutable next_id : int;
    mutable max_total : int;
    mutable max_cell : int;
  }

  let len g = g.lo + Array.length g.gcells - g.hi

  let create ~lists ~input_length =
    if lists < 1 then invalid_arg "Nlm.Engine.create: lists >= 1";
    let first =
      if input_length = 0 then [| empty_cell |]
      else Array.init input_length (fun i0 -> cell_of_sym_array [| Open; In (i0 + 1); Close |])
    in
    (* ids count up list-major from 1 *)
    let next_id = ref 1 in
    let glist cells =
      let n = Array.length cells in
      let cap = max 16 (2 * n) in
      let gcells = Array.make cap empty_cell and gids = Array.make cap 0 in
      Array.iteri
        (fun k c ->
          gcells.(cap - n + k) <- c;
          gids.(cap - n + k) <- !next_id;
          incr next_id)
        cells;
      { gcells; gids; lo = 0; hi = cap - n; gdir = 1; grevs = 0 }
    in
    let glists = Array.init lists (fun tau -> glist (if tau = 0 then first else [| empty_cell |])) in
    {
      glists;
      next_id = !next_id;
      max_total = Array.fold_left (fun acc g -> acc + len g) 0 glists;
      max_cell = Array.fold_left (fun acc c -> max acc c.len) empty_cell.len first;
    }

  let cells e = Array.map (fun g -> g.gcells.(g.hi)) e.glists
  let positions e = Array.map (fun g -> g.lo + 1) e.glists
  let dirs e = Array.map (fun g -> g.gdir) e.glists
  let length e tau = len e.glists.(tau)
  let total_revs e = Array.fold_left (fun acc g -> acc + g.grevs) 0 e.glists

  let slot g index = if index <= g.lo then index - 1 else g.hi + (index - g.lo - 1)

  let id_at_index e ~tau ~index =
    let g = e.glists.(tau) in
    if index < 1 || index > len g then invalid_arg "Nlm.Engine.id_at_index: index out of range";
    g.gids.(slot g index)

  let index_of_id e ~tau id =
    let g = e.glists.(tau) in
    let rec scan k = if k > len g then None else if g.gids.(slot g k) = id then Some k else scan (k + 1) in
    scan 1

  (* double the capacity, keeping the gap where it is *)
  let grow g =
    let cap = Array.length g.gcells in
    let tail = cap - g.hi in
    let gcells = Array.make (2 * cap) empty_cell and gids = Array.make (2 * cap) 0 in
    Array.blit g.gcells 0 gcells 0 g.lo;
    Array.blit g.gids 0 gids 0 g.lo;
    Array.blit g.gcells g.hi gcells ((2 * cap) - tail) tail;
    Array.blit g.gids g.hi gids ((2 * cap) - tail) tail;
    g.gcells <- gcells;
    g.gids <- gids;
    g.hi <- (2 * cap) - tail

  let step e ~state ~choice movements =
    let t = Array.length e.glists in
    if Array.length movements <> t then invalid_arg "Nlm.step: alpha returned wrong movement arity";
    (* clamp at list ends (Definition 24(c)) *)
    let clamped =
      Array.mapi
        (fun tau mv ->
          let g = e.glists.(tau) in
          if mv.dir <> -1 && mv.dir <> 1 then invalid_arg "Nlm.step: dir must be ±1";
          if g.lo = 0 && mv.dir = -1 && mv.move then { dir = -1; move = false }
          else if g.lo + 1 = len g && mv.dir = 1 && mv.move then { dir = 1; move = false }
          else mv)
        movements
    in
    let cellmoves = Array.make t 0 in
    if Array.exists2 (fun g mv -> mv.move || mv.dir <> g.gdir) e.glists clamped then begin
      (* the forced write: an O(t) node referencing the current cells *)
      let y = written_cell ~state ~comps:(cells e) ~choice in
      if y.len > e.max_cell then e.max_cell <- y.len;
      Array.iteri
        (fun tau mv ->
          let g = e.glists.(tau) in
          if mv.move then begin
            (* overwrite (the cell keeps its id), then step off it *)
            g.gcells.(g.hi) <- y;
            if mv.dir = 1 then begin
              g.gcells.(g.lo) <- g.gcells.(g.hi);
              g.gids.(g.lo) <- g.gids.(g.hi);
              g.lo <- g.lo + 1;
              g.hi <- g.hi + 1
            end
            else begin
              g.lo <- g.lo - 1;
              g.hi <- g.hi - 1;
              g.gcells.(g.hi) <- g.gcells.(g.lo);
              g.gids.(g.hi) <- g.gids.(g.lo)
            end;
            cellmoves.(tau) <- mv.dir
          end
          else begin
            if g.lo = g.hi then grow g;
            let id = e.next_id in
            e.next_id <- id + 1;
            if g.gdir = 1 then begin
              (* insert before the head, whose index shifts up *)
              g.gcells.(g.lo) <- y;
              g.gids.(g.lo) <- id;
              g.lo <- g.lo + 1
            end
            else begin
              (* insert after the head: slide the head cell left *)
              g.hi <- g.hi - 1;
              g.gcells.(g.hi) <- g.gcells.(g.hi + 1);
              g.gids.(g.hi) <- g.gids.(g.hi + 1);
              g.gcells.(g.hi + 1) <- y;
              g.gids.(g.hi + 1) <- id
            end
          end;
          if mv.dir <> g.gdir then begin
            g.grevs <- g.grevs + 1;
            g.gdir <- mv.dir
          end)
        clamped;
      let total = Array.fold_left (fun acc g -> acc + len g) 0 e.glists in
      if total > e.max_total then e.max_total <- total
    end;
    cellmoves

  let config e ~state =
    let live g arr = Array.append (Array.sub arr 0 g.lo) (Array.sub arr g.hi (Array.length arr - g.hi)) in
    {
      state;
      pos = positions e;
      head_dir = dirs e;
      contents = Array.map (fun g -> live g g.gcells) e.glists;
      revs = Array.map (fun g -> g.grevs) e.glists;
      ids = Array.map (fun g -> live g g.gids) e.glists;
      next_id = e.next_id;
    }
end

let initial_config m =
  Engine.config (Engine.create ~lists:m.lists ~input_length:m.input_length) ~state:m.initial

let current_cells c =
  Array.mapi (fun tau p -> c.contents.(tau).(p - 1)) c.pos

let splice_replace arr j y =
  let fresh = Array.copy arr in
  fresh.(j - 1) <- y;
  fresh

let splice_insert_before arr j y =
  (* y becomes cell j; old cell j shifts to j+1 *)
  Array.concat [ Array.sub arr 0 (j - 1); [| y |]; Array.sub arr (j - 1) (Array.length arr - j + 1) ]

let splice_insert_after arr j y =
  Array.concat [ Array.sub arr 0 j; [| y |]; Array.sub arr j (Array.length arr - j) ]

let step m ~values c ~choice =
  if m.is_final c.state then invalid_arg "Nlm.step: final configuration";
  if choice < 0 || choice >= m.num_choices then invalid_arg "Nlm.step: choice range";
  let cells = current_cells c in
  let tr = m.alpha ~values ~state:c.state ~cells ~choice in
  if Array.length tr.movements <> m.lists then
    invalid_arg "Nlm.step: alpha returned wrong movement arity";
  (* clamp at list ends (Definition 24(c)) *)
  let clamped =
    Array.mapi
      (fun tau e ->
        let len = Array.length c.contents.(tau) in
        if e.dir <> -1 && e.dir <> 1 then invalid_arg "Nlm.step: dir must be ±1";
        if c.pos.(tau) = 1 && e.dir = -1 && e.move then { dir = -1; move = false }
        else if c.pos.(tau) = len && e.dir = 1 && e.move then { dir = 1; move = false }
        else e)
      tr.movements
  in
  let f =
    Array.mapi (fun tau e -> e.move || e.dir <> c.head_dir.(tau)) clamped
  in
  if Array.for_all not f then
    ( { c with state = tr.next_state }, Array.make m.lists 0 )
  else begin
    (* the forced write: an O(t) node referencing the current cells *)
    let y = written_cell ~state:c.state ~comps:cells ~choice in
    let contents = Array.copy c.contents in
    let ids = Array.copy c.ids in
    let next_id = ref c.next_id in
    let fresh () =
      let id = !next_id in
      incr next_id;
      id
    in
    let pos = Array.copy c.pos in
    let head_dir = Array.copy c.head_dir in
    let revs = Array.copy c.revs in
    let cellmoves = Array.make m.lists 0 in
    for tau = 0 to m.lists - 1 do
      let e = clamped.(tau) in
      let p = c.pos.(tau) in
      if e.move then begin
        contents.(tau) <- splice_replace c.contents.(tau) p y;
        (* overwrite: the cell keeps its identity, so [ids.(tau)] can
           keep sharing [c.ids.(tau)] *)
        pos.(tau) <- (if e.dir = 1 then p + 1 else p - 1);
        cellmoves.(tau) <- e.dir
      end
      else begin
        (if c.head_dir.(tau) = 1 then begin
           contents.(tau) <- splice_insert_before c.contents.(tau) p y;
           ids.(tau) <- splice_insert_before c.ids.(tau) p (fresh ());
           pos.(tau) <- p + 1
         end
         else begin
           contents.(tau) <- splice_insert_after c.contents.(tau) p y;
           ids.(tau) <- splice_insert_after c.ids.(tau) p (fresh ());
           pos.(tau) <- p
         end);
        cellmoves.(tau) <- 0
      end;
      if e.dir <> c.head_dir.(tau) then begin
        revs.(tau) <- revs.(tau) + 1;
        head_dir.(tau) <- e.dir
      end
    done;
    ( { state = tr.next_state; pos; head_dir; contents; revs; ids; next_id = !next_id },
      cellmoves )
  end

type trace = {
  accepted : bool;
  configs : config array;
  moves : int array array;
  choices_used : int array;
  total_revs : int;
}

let run ?(fuel = 100_000) m ~values ~choices =
  if Array.length values <> m.input_length then
    invalid_arg "Nlm.run: values arity";
  let configs = ref [] in
  let moves = ref [] in
  let used = ref [] in
  let c = ref (initial_config m) in
  let steps = ref 0 in
  configs := [ !c ];
  while not (m.is_final !c.state) do
    if !steps >= fuel then failwith "Nlm.run: out of fuel";
    let choice = ((choices !steps mod m.num_choices) + m.num_choices) mod m.num_choices in
    let c', mv = step m ~values !c ~choice in
    c := c';
    configs := c' :: !configs;
    moves := mv :: !moves;
    used := choice :: !used;
    incr steps
  done;
  let final = !c in
  {
    accepted = m.is_accepting final.state;
    configs = Array.of_list (List.rev !configs);
    moves = Array.of_list (List.rev !moves);
    choices_used = Array.of_list (List.rev !used);
    total_revs = Array.fold_left ( + ) 0 final.revs;
  }

let scans tr = 1 + tr.total_revs

(* -------------------------------------------------------------- *)
(* View runs: [Engine] steps recording only the O(t) local view per
   step (state, head directions, cells under the heads) plus the final
   configuration, which is all the skeleton pipeline reads. Cells are
   immutable DAG nodes, so captured views stay valid as the gap buffers
   shift under them. *)

type view = { vstate : int; vdirs : int array; vcells : cell array }

type view_trace = {
  vaccepted : bool;
  views : view array;
  vmoves : int array array;
  vchoices_used : int array;
  vtotal_revs : int;
  final : config;
  max_total_list_length : int;
  max_cell_size : int;
}

let run_view ?(fuel = 100_000) m ~values ~choices =
  if Array.length values <> m.input_length then
    invalid_arg "Nlm.run_view: values arity";
  let e = Engine.create ~lists:m.lists ~input_length:m.input_length in
  let state = ref m.initial in
  let current_view () = { vstate = !state; vdirs = Engine.dirs e; vcells = Engine.cells e } in
  let views = ref [ current_view () ] in
  let moves = ref [] in
  let used = ref [] in
  let steps = ref 0 in
  while not (m.is_final !state) do
    if !steps >= fuel then failwith "Nlm.run_view: out of fuel";
    let choice =
      ((choices !steps mod m.num_choices) + m.num_choices) mod m.num_choices
    in
    let tr = m.alpha ~values ~state:!state ~cells:(Engine.cells e) ~choice in
    moves := Engine.step e ~state:!state ~choice tr.movements :: !moves;
    state := tr.next_state;
    views := current_view () :: !views;
    used := choice :: !used;
    incr steps
  done;
  {
    vaccepted = m.is_accepting !state;
    views = Array.of_list (List.rev !views);
    vmoves = Array.of_list (List.rev !moves);
    vchoices_used = Array.of_list (List.rev !used);
    vtotal_revs = Engine.total_revs e;
    final = Engine.config e ~state:!state;
    max_total_list_length = e.Engine.max_total;
    max_cell_size = e.Engine.max_cell;
  }

let accept_probability st ?(samples = 500) ?fuel m ~values =
  let hits = ref 0 in
  for _ = 1 to samples do
    let tr =
      run ?fuel m ~values ~choices:(fun _ -> Random.State.int st m.num_choices)
    in
    if tr.accepted then incr hits
  done;
  float_of_int !hits /. float_of_int samples

(* configs carry memoized cells whose [uid] differs between otherwise
   identical successors, so grouping keys on the uid-free projection *)
let config_key (c : config) =
  (c.state, c.pos, c.head_dir, c.revs, Array.map (Array.map (fun cell -> cell.hash)) c.contents)

let exact_probability ?(fuel = 200_000) m ~values =
  let expanded = ref 0 in
  let rec go c =
    incr expanded;
    if !expanded > fuel then failwith "Nlm.exact_probability: out of fuel";
    if m.is_final c.state then if m.is_accepting c.state then 1.0 else 0.0
    else begin
      (* group identical successors so that choice-insensitive steps do
         not blow up the tree (cell hashes are deterministic per choice,
         so the content projection is sound here) *)
      let successors = ref [] in
      for choice = 0 to m.num_choices - 1 do
        let c', _ = step m ~values c ~choice in
        let k = config_key c' in
        match List.assoc_opt k !successors with
        | Some (c0, count) ->
            successors := (k, (c0, count + 1)) :: List.remove_assoc k !successors
        | None -> successors := (k, (c', 1)) :: !successors
      done;
      List.fold_left
        (fun acc (_, (c', count)) ->
          acc +. (float_of_int count *. go c' /. float_of_int m.num_choices))
        0.0 !successors
    end
  in
  go (initial_config m)

let cell_inputs cell =
  List.rev
    (fold_syms
       (fun acc s ->
         match s with In i -> i :: acc | Ch _ | St _ | Open | Close -> acc)
       [] cell)

let cell_components cell =
  match cell.shape with
  | Written { state; comps; choice } -> Some (state, Array.to_list comps, choice)
  | Syms arr -> (
      (* parse a⟨x_1⟩…⟨x_t⟩⟨c⟩ by bracket matching, for hand-built cells *)
      match Array.to_list arr with
      | St a :: rest ->
          let rec comps_of acc rest =
            match rest with
            | [] -> Some (List.rev acc)
            | Open :: tl ->
                let rec grab depth body tl =
                  match tl with
                  | [] -> None
                  | Close :: tl' ->
                      if depth = 0 then Some (List.rev body, tl')
                      else grab (depth - 1) (Close :: body) tl'
                  | Open :: tl' -> grab (depth + 1) (Open :: body) tl'
                  | (In _ | Ch _ | St _) as s :: tl' -> grab depth (s :: body) tl'
                in
                (match grab 0 [] tl with
                | None -> None
                | Some (body, tl') -> comps_of (body :: acc) tl')
            | (In _ | Ch _ | St _ | Close) :: _ -> None
          in
          (match comps_of [] rest with
          | Some parts when List.length parts >= 1 -> (
              match List.rev parts with
              | [ Ch ch ] :: xs_rev ->
                  Some (a, List.rev_map cell_of_syms xs_rev, ch)
              | _ -> None)
          | Some _ | None -> None)
      | [] | (In _ | Ch _ | Open | Close) :: _ -> None)

let resolve_cell ~values cell =
  List.map
    (function
      | In i -> Either.Left values.(i - 1)
      | Ch c -> Either.Right (-1 - c)
      | St a -> Either.Right a
      | Open -> Either.Right min_int
      | Close -> Either.Right (min_int + 1))
    (syms_of_cell cell)

let cell_size c = c.len

let pp_sym ppf = function
  | In i -> Format.fprintf ppf "v%d" i
  | Ch c -> Format.fprintf ppf "c%d" c
  | St a -> Format.fprintf ppf "a%d" a
  | Open -> Format.pp_print_string ppf "<"
  | Close -> Format.pp_print_string ppf ">"

let pp_cell ppf cell = iter_syms (fun s -> pp_sym ppf s) cell
