(* Reference oracle for [Numtheory.mul_mod]/[pow_mod]: bit-serial
   double-and-add, the routine the library used before Montgomery.
   Exact for moduli below 2^61, where a + b < 2^62 never overflows. *)

let add_mod a b m =
  let s = a + b in
  if s >= m then s - m else s

let mul_mod a b m =
  let a = ((a mod m) + m) mod m and b = ((b mod m) + m) mod m in
  let acc = ref 0 and base = ref a and e = ref b in
  while !e > 0 do
    if !e land 1 = 1 then acc := add_mod !acc !base m;
    base := add_mod !base !base m;
    e := !e lsr 1
  done;
  !acc

let pow_mod b e m =
  let acc = ref (1 mod m) and base = ref (((b mod m) + m) mod m) and e = ref e in
  while !e > 0 do
    if !e land 1 = 1 then acc := mul_mod !acc !base m;
    base := mul_mod !base !base m;
    e := !e lsr 1
  done;
  !acc
