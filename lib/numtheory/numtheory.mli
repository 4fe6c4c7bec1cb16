(** Number theory for the fingerprinting upper bound (Theorem 8(a)).

    The algorithm of Theorem 8(a) needs: a uniformly random prime
    [p1 ≤ k] for [k = m³·n·log(m³·n)]; an arbitrary prime
    [p2 ∈ (3k, 6k]] (Bertrand's postulate); arithmetic modulo [p2]; and
    the residue of a long bit string modulo [p1], computed in one
    streaming pass. All arithmetic stays within OCaml's 63-bit native
    integers and is exact for every modulus [m < 2^62] (every positive
    [int]), with no bignum dependency. Below [2^31] a product fits in a
    word and is reduced directly. At and above [2^31], odd moduli use
    word-level Montgomery multiplication with [R = 2^62]: the low word
    of a product is the wrapped native product, the high word is built
    from four 31×31-bit limb products, and the per-modulus constants
    ([−m⁻¹ mod 2^62] by Newton iteration, Montgomery form by 62
    doublings) are recomputed on every call, so there is no cache and
    no shared state. An even modulus [m = 2^s·q] is reduced modulo the
    odd [q] that way and modulo [2^s] by masking, then recombined by
    CRT. *)

val add_mod : int -> int -> int -> int
(** [add_mod a b m] is [(a + b) mod m] without overflow for
    [0 ≤ a, b < m], any [m < 2^62]. *)

val mul_mod : int -> int -> int -> int
(** [mul_mod a b m] is [(a · b) mod m], exact for every [m] in
    [\[1, 2^62)], odd or even: direct multiplication when [m < 2^31],
    Montgomery above (CRT for even [m]). Arguments, negative ones
    included, are reduced first. @raise Invalid_argument if [m <= 0]. *)

val pow_mod : int -> int -> int -> int
(** [pow_mod b e m] is [b^e mod m] for [e ≥ 0], exact for every [m] in
    [\[1, 2^62)]. For odd [m ≥ 2^31] the whole square-and-multiply
    ladder runs in Montgomery form; a call allocates nothing.
    @raise Invalid_argument if [e < 0] or [m <= 0]. *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin, correct for all [n < 2^62] (uses the
    standard 12-witness base set valid below 3.3·10^24, on the exact
    {!pow_mod}/{!mul_mod} above). *)

val next_prime : int -> int
(** Smallest prime strictly greater than the argument. *)

val primes_upto : int -> int list
(** Sieve of Eratosthenes; intended for tests and small experiments. *)

val count_primes_upto : int -> int

val primes_le : int -> int array
(** The primes [≤ k], sieved once per distinct [k] and memoized
    (domain-safe). Backs {!random_prime_le} below the cache threshold.
    @raise Invalid_argument if [k < 2]. *)

val prime_cache_threshold : int
(** Largest [k] the {!primes_le} memo will sieve; above it
    {!random_prime_le} falls back to rejection sampling. *)

val random_prime_le : Random.State.t -> int -> int
(** [random_prime_le st k] is a uniformly random prime [p ≤ k]: an
    index into the memoized sieve for [k ≤ prime_cache_threshold]
    (one random draw, no Miller–Rabin), rejection sampling over
    [\[2, k\]] beyond it.
    @raise Invalid_argument if [k < 2]. *)

val bertrand_prime : int -> int
(** [bertrand_prime k] is the smallest prime in [(3k, 6k]]; its
    existence for [k ≥ 1] is Bertrand's postulate (step (3) of the
    Theorem 8(a) algorithm).
    @raise Invalid_argument if [k < 1]. *)

val random_unit : Random.State.t -> int -> int
(** [random_unit st p] is uniform in [{1,..,p−1}] (step (4)).
    @raise Invalid_argument if [p < 2]. *)

val mod_of_bits : Util.Bitstring.t -> modulus:int -> int
(** [mod_of_bits v ~modulus:p] is the value of [v] (read MSB-first as a
    binary integer) modulo [p], computed by the streaming recurrence
    [e ← (2e + bit) mod p] — one left-to-right scan, O(log p) state, as
    required for step (5) of the Theorem 8(a) algorithm.
    @raise Invalid_argument if [p <= 0]. *)

val fingerprint_k : m:int -> n:int -> int
(** The paper's [k := m³ · n · ⌈log2 (m³ · n)⌉] parameter.
    @raise Invalid_argument if the value would overflow 62 bits. *)
