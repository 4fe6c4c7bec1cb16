(* Tests for the number theory used by the Theorem 8(a) fingerprint:
   overflow-safe modular arithmetic, Miller-Rabin, prime sampling,
   Bertrand primes, streaming residues. *)

module N = Numtheory

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Oracle = Numtheory_oracle

(* 2^62 - 57, the largest prime below 2^62 *)
let p62 = (1 lsl 62) - 57

let test_add_mod () =
  check_int "simple" 1 (N.add_mod 3 5 7);
  check_int "no overflow near 2^61" 0
    (N.add_mod (2305843009213693950) 1 2305843009213693951)

let test_mul_mod_small () =
  check_int "simple" 6 (N.mul_mod 2 3 7);
  check_int "reduction" 2 (N.mul_mod 5 6 7);
  check_int "negative operand" 5 (N.mul_mod (-2) 1 7)

let test_mul_mod_large () =
  (* against a reference computed with independent modular identities:
     (a*b) mod m where a = m-1, b = m-1: (m-1)^2 = m^2-2m+1 ≡ 1 *)
  let m = 2305843009213693951 in
  check_int "(m-1)^2 mod m = 1" 1 (N.mul_mod (m - 1) (m - 1) m);
  check_int "(m-1)*2 mod m = m-2" (m - 2) (N.mul_mod (m - 1) 2 m)

let test_above_2_61 () =
  check "is_prime (2^62-57)" true (N.is_prime p62);
  check_int "(m-1)^2 = 1 at 2^62-57" 1 (N.mul_mod (p62 - 1) (p62 - 1) p62);
  check_int "fermat at 2^62-57" 1 (N.pow_mod 2 (p62 - 1) p62);
  check_int "add_mod at 2^62-57" (p62 - 2) (N.add_mod (p62 - 1) (p62 - 1) p62);
  (* the largest modulus of each parity: 2^62 - 1 = 3 * 715827883 * 2147483647
     and 2^62 - 2 = 2 * (2^61 - 1) *)
  let m = max_int in
  check_int "(m-1)^2 at 2^62-1" 1 (N.mul_mod (m - 1) (m - 1) m);
  check_int "(m-1)^2 at 2^62-2" 1 (N.mul_mod (m - 2) (m - 2) (m - 1));
  (* 2^122 is 1 mod 2^61 - 1 and 0 mod 2, hence 2^61 by CRT *)
  check_int "2^61 squared mod 2^62-2" (1 lsl 61) (N.mul_mod (1 lsl 61) (1 lsl 61) (m - 1))

let test_pow_mod () =
  check_int "2^10 mod 1000" 24 (N.pow_mod 2 10 1000);
  check_int "x^0" 1 (N.pow_mod 12345 0 97);
  (* Fermat: a^(p-1) = 1 mod p for large prime p *)
  let p = 1000000007 in
  check_int "fermat" 1 (N.pow_mod 123456789 (p - 1) p);
  let p61 = 2305843009213693951 in
  check_int "fermat mersenne-61" 1 (N.pow_mod 987654321987654321 (p61 - 1) p61)

let test_is_prime_small () =
  let sieve = N.primes_upto 2000 in
  let by_mr = List.filter N.is_prime (List.init 1999 (fun i -> i + 2)) in
  Alcotest.(check (list int)) "MR agrees with sieve below 2000" sieve by_mr

let test_is_prime_known () =
  check "2^61-1 prime" true (N.is_prime 2305843009213693951);
  check "2^62-? composite" false (N.is_prime (2305843009213693951 - 1));
  check "carmichael 561" false (N.is_prime 561);
  check "carmichael 41041" false (N.is_prime 41041);
  check "1" false (N.is_prime 1);
  check "0" false (N.is_prime 0);
  check "10^18+9 prime" true (N.is_prime 1000000000000000009)

let test_next_prime () =
  check_int "after 10" 11 (N.next_prime 10);
  check_int "after 0" 2 (N.next_prime 0);
  check_int "after 13" 17 (N.next_prime 13)

let test_bertrand () =
  List.iter
    (fun k ->
      let p = N.bertrand_prime k in
      check (Printf.sprintf "k=%d" k) true (N.is_prime p && p > 3 * k && p <= 6 * k))
    [ 1; 2; 10; 1000; 123456 ]

let test_random_prime_le () =
  let st = Random.State.make [| 4 |] in
  for _ = 1 to 50 do
    let p = N.random_prime_le st 1000 in
    check "prime and in range" true (N.is_prime p && p <= 1000)
  done

let test_random_prime_roughly_uniform () =
  (* every prime <= 30 should appear across many samples *)
  let st = Random.State.make [| 5 |] in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (N.random_prime_le st 30) ()
  done;
  List.iter
    (fun p -> check (Printf.sprintf "saw %d" p) true (Hashtbl.mem seen p))
    [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 ]

let test_mod_of_bits () =
  let v = Util.Bitstring.of_string "1101" in
  check_int "13 mod 5" 3 (N.mod_of_bits v ~modulus:5);
  check_int "13 mod 2" 1 (N.mod_of_bits v ~modulus:2);
  check_int "empty" 0 (N.mod_of_bits (Util.Bitstring.of_string "") ~modulus:7)

let prop_mod_of_bits_matches_int =
  QCheck.Test.make ~name:"mod_of_bits = to_int mod p" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 999))
    (fun (x, p) ->
      let v = Util.Bitstring.of_int ~width:20 x in
      N.mod_of_bits v ~modulus:p = x mod p)

let prop_mul_mod_matches_small =
  QCheck.Test.make ~name:"mul_mod = direct for small moduli" ~count:500
    QCheck.(triple (int_bound 10000) (int_bound 10000) (int_range 1 10000))
    (fun (a, b, m) -> N.mul_mod a b m = a * b mod m)

let prop_mul_mod_large_associative =
  (* algebraic identity in a large modulus: (a*b)*c = a*(b*c) *)
  QCheck.Test.make ~name:"mul_mod associativity at 2^61-1" ~count:200
    QCheck.(triple pos_int pos_int pos_int)
    (fun (a, b, c) ->
      let m = 2305843009213693951 in
      N.mul_mod (N.mul_mod a b m) c m = N.mul_mod a (N.mul_mod b c m) m)

let prop_pow_mod_adds_exponents =
  QCheck.Test.make ~name:"x^(a+b) = x^a * x^b mod p" ~count:200
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000000))
    (fun (a, b, x) ->
      let p = 1000000007 in
      N.pow_mod x (a + b) p = N.mul_mod (N.pow_mod x a p) (N.pow_mod x b p) p)

(* Moduli in [2^31, 2^61), where the oracle is exact: odd for [parity]
   1, else even m = 2^s * q with s in [1, 60] and q odd (s = 60 gives
   2^60 itself). *)
let modulus parity =
  QCheck.Gen.(
    if parity = 1 then map (fun m -> m lor 1) (int_range (1 lsl 31) ((1 lsl 61) - 1))
    else
      int_range 1 60 >>= fun s ->
      map
        (fun q -> (q lor 1) lsl s)
        (int_range (1 lsl max 0 (31 - s)) ((1 lsl (61 - s)) - 1)))

let operand m =
  QCheck.Gen.(
    oneof
      [
        int;
        oneofl
          [ 0; 1; m - 1; m - 2; 1 lsl 31; (1 lsl 31) + 1; (1 lsl 61) - 1; -1; -m + 1 ];
      ])

let with_modulus gen =
  QCheck.make
    ~print:QCheck.Print.(quad int int int int)
    QCheck.Gen.(
      int_bound 1 >>= fun parity ->
      modulus parity >>= fun m ->
      map (fun ((a, b), e) -> (a, b, e, m)) (pair (pair (operand m) (operand m)) gen))

let prop_mul_mod_oracle =
  QCheck.Test.make ~name:"mul_mod = oracle on [2^31, 2^61), odd and even" ~count:2000
    (with_modulus (QCheck.Gen.return 0))
    (fun (a, b, _, m) -> N.mul_mod a b m = Oracle.mul_mod a b m)

let prop_pow_mod_oracle =
  QCheck.Test.make ~name:"pow_mod = oracle on [2^31, 2^61), odd and even" ~count:500
    (with_modulus QCheck.Gen.(oneof [ int_bound (1 lsl 24); int_bound max_int ]))
    (fun (a, _, e, m) -> N.pow_mod a e m = Oracle.pow_mod a e m)

let prop_is_prime_40_bit =
  (* Miller-Rabin against trial division by the sieved primes < 2^20 *)
  let small = N.primes_upto (1 lsl 20) in
  QCheck.Test.make ~name:"is_prime = trial division on 40-bit odd n" ~count:300
    QCheck.(make Gen.(map (fun n -> n lor 1 lor (1 lsl 39)) (int_bound ((1 lsl 40) - 1))))
    (fun n -> N.is_prime n = List.for_all (fun p -> n mod p <> 0) small)

let test_fingerprint_k () =
  (* k = m^3 * n * ceil(log2 (m^3 n)) *)
  check_int "m=2,n=2" (8 * 2 * 4) (N.fingerprint_k ~m:2 ~n:2);
  check "monotone" true (N.fingerprint_k ~m:4 ~n:8 > N.fingerprint_k ~m:2 ~n:8);
  try
    ignore (N.fingerprint_k ~m:(1 lsl 21) ~n:(1 lsl 21));
    Alcotest.fail "overflow accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "numtheory"
    [
      ( "modular",
        [
          Alcotest.test_case "add_mod" `Quick test_add_mod;
          Alcotest.test_case "mul_mod small" `Quick test_mul_mod_small;
          Alcotest.test_case "mul_mod large" `Quick test_mul_mod_large;
          Alcotest.test_case "pow_mod" `Quick test_pow_mod;
          Alcotest.test_case "moduli above 2^61" `Quick test_above_2_61;
          QCheck_alcotest.to_alcotest prop_mul_mod_oracle;
          QCheck_alcotest.to_alcotest prop_pow_mod_oracle;
          QCheck_alcotest.to_alcotest prop_mul_mod_matches_small;
          QCheck_alcotest.to_alcotest prop_mul_mod_large_associative;
          QCheck_alcotest.to_alcotest prop_pow_mod_adds_exponents;
        ] );
      ( "primes",
        [
          Alcotest.test_case "MR vs sieve" `Quick test_is_prime_small;
          Alcotest.test_case "known primes" `Quick test_is_prime_known;
          QCheck_alcotest.to_alcotest prop_is_prime_40_bit;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "bertrand" `Quick test_bertrand;
          Alcotest.test_case "random prime" `Quick test_random_prime_le;
          Alcotest.test_case "prime coverage" `Quick test_random_prime_roughly_uniform;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "mod_of_bits" `Quick test_mod_of_bits;
          QCheck_alcotest.to_alcotest prop_mod_of_bits_matches_int;
          Alcotest.test_case "fingerprint_k" `Quick test_fingerprint_k;
        ] );
    ]
