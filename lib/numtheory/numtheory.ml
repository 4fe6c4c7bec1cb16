let add_mod a b m =
  (* a, b < m < 2^62: a - (m - b) lies in (-m, m), so nothing overflows *)
  let s = a - (m - b) in
  if s < 0 then s + m else s

(* ---- Word-level Montgomery arithmetic, R = 2^62 ----
   OCaml ints wrap modulo 2^63, so [a * b land max_int] is the exact low
   62-bit word of a product; the high word is assembled from four
   31 x 31-bit limb products, each below 2^62. The per-modulus constants
   are recomputed on every call: no cache, no shared state. *)

let mask31 = (1 lsl 31) - 1

(* floor (a * b / 2^62) for 0 <= a, b < 2^62 *)
let[@inline] mulhi a b =
  let a0 = a land mask31 and a1 = a lsr 31 in
  let b0 = b land mask31 and b1 = b lsr 31 in
  let a0b1 = a0 * b1 and a1b0 = a1 * b0 in
  let mid = ((a0 * b0) lsr 31) + (a0b1 land mask31) + (a1b0 land mask31) in
  (a1 * b1) + (a0b1 lsr 31) + (a1b0 lsr 31) + (mid lsr 31)

(* -m^-1 mod 2^62 for odd m: m * m = 1 mod 8 seeds 3 correct bits and
   each Newton step x <- x (2 - m x) doubles them (3 -> 96 in 5 steps) *)
let neg_inv m =
  let x = ref m in
  for _ = 1 to 5 do
    x := !x * (2 - (m * !x))
  done;
  - !x land max_int

(* a * 2^62 mod m, the Montgomery form of a < m, by 62 doublings; each
   doubling a - (m - a) stays in (-m, m) for every m < 2^62 *)
let to_mont a m =
  let x = ref a in
  for _ = 1 to 62 do
    let d = !x - (m - !x) in
    x := if d < 0 then d + m else d
  done;
  !x

(* REDC of a * b: a * b * 2^-62 mod m, for a, b < m odd and
   minv = -m^-1 mod 2^62. With u = lo * minv mod 2^62 the sum
   lo + (u * m mod 2^62) is 0 or exactly 2^62, so the quotient is
   hi + mulhi u m + [lo <> 0] < 2m; read it unsigned, subtract m once. *)
let[@inline] mont_mul a b m minv =
  let lo = a * b land max_int in
  let u = lo * minv land max_int in
  let t = mulhi a b + mulhi u m + Bool.to_int (lo <> 0) in
  if t < 0 || t >= m then t - m else t

(* Even m = 2^s * q with q odd: [odd q] is the residue mod q, [low mask]
   the residue mod 2^s (mask = 2^s - 1); recombine them by CRT. *)
let crt_even m ~odd ~low =
  let s = ref 1 in
  while (m lsr !s) land 1 = 0 do
    incr s
  done;
  let q = m lsr !s and mask = (1 lsl !s) - 1 in
  let rq = if q = 1 then 0 else odd q in
  (* q^-1 mod 2^s *)
  let qinv = - neg_inv q in
  rq + (q * ((low mask - rq) * qinv land mask))

(* a mod m in [0, m); (a mod m) + m would overflow for m >= 2^61 *)
let reduce a m =
  let r = a mod m in
  if r < 0 then r + m else r

let rec mul_mod a b m =
  if m <= 0 then invalid_arg "Numtheory.mul_mod: modulus";
  let a = reduce a m and b = reduce b m in
  if m < 1 lsl 31 then a * b mod m
  else if m land 1 = 1 then mont_mul (to_mont a m) b m (neg_inv m)
  else crt_even m ~odd:(mul_mod a b) ~low:(fun mask -> a * b land mask)

(* Square-and-multiply ladders, one per representation. Top-level and
   closure-free, so a call allocates nothing. *)
let rec ladder_direct acc base e m =
  if e = 0 then acc
  else
    ladder_direct
      (if e land 1 = 1 then acc * base mod m else acc)
      (base * base mod m) (e lsr 1) m

let rec ladder_mont acc base e m minv =
  if e = 0 then acc
  else
    ladder_mont
      (if e land 1 = 1 then mont_mul acc base m minv else acc)
      (mont_mul base base m minv) (e lsr 1) m minv

let rec ladder_pow2 acc base e mask =
  if e = 0 then acc
  else
    ladder_pow2
      (if e land 1 = 1 then acc * base land mask else acc)
      (base * base land mask) (e lsr 1) mask

let rec pow_mod b e m =
  if e < 0 then invalid_arg "Numtheory.pow_mod: negative exponent";
  if m <= 0 then invalid_arg "Numtheory.pow_mod: modulus";
  let b = reduce b m in
  if m < 1 lsl 31 then ladder_direct (1 mod m) b e m
  else if m land 1 = 1 then begin
    (* the whole ladder runs in Montgomery form; R mod m stands for 1 *)
    let minv = neg_inv m in
    let r = ladder_mont ((max_int mod m) + 1) (to_mont b m) e m minv in
    mont_mul r 1 m minv
  end
  else crt_even m ~odd:(pow_mod b e) ~low:(fun mask -> ladder_pow2 1 b e mask)

(* Deterministic Miller-Rabin witness set, valid for n < 3.3e24. *)
let mr_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let s = ref 0 and d = ref (n - 1) in
    while !d land 1 = 0 do
      incr s;
      d := !d lsr 1
    done;
    let witnesses_pass a =
      let a = a mod n in
      if a = 0 then true
      else begin
        let x = ref (pow_mod a !d n) in
        if !x = 1 || !x = n - 1 then true
        else begin
          let ok = ref false and i = ref 1 in
          while (not !ok) && !i < !s do
            x := mul_mod !x !x n;
            if !x = n - 1 then ok := true;
            incr i
          done;
          !ok
        end
      end
    in
    List.for_all witnesses_pass mr_witnesses
  end

let next_prime n =
  let c = ref (max 2 (n + 1)) in
  while not (is_prime !c) do
    incr c
  done;
  !c

let primes_upto n =
  if n < 2 then []
  else begin
    let sieve = Array.make (n + 1) true in
    sieve.(0) <- false;
    sieve.(1) <- false;
    let i = ref 2 in
    while !i * !i <= n do
      if sieve.(!i) then begin
        let j = ref (!i * !i) in
        while !j <= n do
          sieve.(!j) <- false;
          j := !j + !i
        done
      end;
      incr i
    done;
    let acc = ref [] in
    for p = n downto 2 do
      if sieve.(p) then acc := p :: !acc
    done;
    !acc
  end

let count_primes_upto n = List.length (primes_upto n)

(* Per-k memo of the sieve, for the per-trial prime sampling of the
   fingerprint experiments: the same k is drawn from hundreds of times
   per table row, and rejection sampling re-runs Miller-Rabin on every
   candidate. Above the threshold (where the sieve itself would cost
   tens of MB) the rejection path is kept. The caches are shared across
   domains, hence the mutex; a hit is one Hashtbl lookup. *)
let prime_cache_threshold = 1 lsl 24

let sieve_cache : (int, int array) Hashtbl.t = Hashtbl.create 8
let bertrand_cache : (int, int) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let locked f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let primes_le k =
  if k < 2 then invalid_arg "Numtheory.primes_le: k < 2";
  locked (fun () ->
      match Hashtbl.find_opt sieve_cache k with
      | Some a -> a
      | None ->
          (* sieve inside the lock: briefly serializing the domains
             beats every one of them sieving the same k *)
          let a = Array.of_list (primes_upto k) in
          Hashtbl.add sieve_cache k a;
          a)

let random_prime_le st k =
  if k < 2 then invalid_arg "Numtheory.random_prime_le: k < 2";
  if k <= prime_cache_threshold then begin
    let ps = primes_le k in
    ps.(Random.State.full_int st (Array.length ps))
  end
  else begin
    let rec pick () =
      let c = 2 + Random.State.full_int st (k - 1) in
      if is_prime c then c else pick ()
    in
    pick ()
  end

let bertrand_prime k =
  if k < 1 then invalid_arg "Numtheory.bertrand_prime: k < 1";
  match locked (fun () -> Hashtbl.find_opt bertrand_cache k) with
  | Some p -> p
  | None ->
      let p = next_prime (3 * k) in
      (* Bertrand's postulate guarantees a prime in (3k, 6k]. *)
      assert (p <= 6 * k);
      locked (fun () -> Hashtbl.replace bertrand_cache k p);
      p

let random_unit st p =
  if p < 2 then invalid_arg "Numtheory.random_unit: p < 2";
  1 + Random.State.full_int st (p - 1)

let mod_of_bits v ~modulus =
  if modulus <= 0 then invalid_arg "Numtheory.mod_of_bits: modulus";
  Util.Bitstring.fold_bits
    (fun _ bit e -> add_mod (add_mod e e modulus) (Bool.to_int bit mod modulus) modulus)
    v 0

let fingerprint_k ~m ~n =
  if m < 1 || n < 1 then invalid_arg "Numtheory.fingerprint_k: m, n >= 1";
  let cube = m * m * m in
  if cube / m / m <> m then invalid_arg "Numtheory.fingerprint_k: m^3 overflow";
  let prod = cube * n in
  if prod / n <> cube then invalid_arg "Numtheory.fingerprint_k: m^3*n overflow";
  let lg =
    let rec go acc x = if x <= 1 then acc else go (acc + 1) ((x + 1) / 2) in
    max 1 (go 0 prod)
  in
  let k = prod * lg in
  if k / lg <> prod || 6 * k < 0 then
    invalid_arg "Numtheory.fingerprint_k: k overflow";
  k
