(* Known-answer and property tests for the crypto substrate. *)

let hex s =
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex_of s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* ------------------------------------------------------------------ *)
(* AES known-answer tests *)

let test_sbox () =
  (* spot values from the FIPS-197 S-box table *)
  Alcotest.(check int) "S(0x00)" 0x63 (Crypto.Aes.sbox 0x00);
  Alcotest.(check int) "S(0x01)" 0x7c (Crypto.Aes.sbox 0x01);
  Alcotest.(check int) "S(0x53)" 0xed (Crypto.Aes.sbox 0x53);
  Alcotest.(check int) "S(0xff)" 0x16 (Crypto.Aes.sbox 0xff);
  Alcotest.(check int) "S(0x10)" 0xca (Crypto.Aes.sbox 0x10)

let test_sbox_bijective () =
  let seen = Array.make 256 false in
  for x = 0 to 255 do
    seen.(Crypto.Aes.sbox x) <- true
  done;
  Alcotest.(check bool) "S-box is a bijection" true
    (Array.for_all Fun.id seen)

let test_fips197_appendix_b () =
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Crypto.Aes.encrypt_block key (hex "3243f6a8885a308d313198a2e0370734") in
  Alcotest.(check string) "FIPS-197 B" "3925841d02dc09fbdc118597196a0b32" (hex_of ct)

let test_fips197_appendix_c () =
  let key = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Crypto.Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff") in
  Alcotest.(check string) "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex_of ct)

let test_nist_ecb_vector () =
  (* NIST SP 800-38A F.1.1 ECB-AES128 block #1 *)
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Crypto.Aes.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "SP800-38A" "3ad77bb40d7a3660a89ecaf32466ef97" (hex_of ct)

let test_reduced_rounds_differ () =
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let block = hex "3243f6a8885a308d313198a2e0370734" in
  let outs =
    List.map (fun rounds -> Crypto.Aes.encrypt_block ~rounds key block)
      [ 1; 2; 5; 9; 10 ]
  in
  Alcotest.(check int) "all distinct" 5 (List.length (List.sort_uniq compare outs))

(* Reduced-round ciphertexts of the FIPS-197 C.1 key/plaintext (AES-10
   is appendix C above), pinned bit for bit: the schedule is
   [rounds - 1] full rounds plus the final round keyed with round key
   [rounds]. *)
let test_reduced_rounds_golden () =
  let key = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let block = hex "00112233445566778899aabbccddeeff" in
  List.iter
    (fun (rounds, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "AES-%d" rounds)
        expected
        (hex_of (Crypto.Aes.encrypt_block ~rounds key block)))
    [
      (1, "b5f99471dbcf93fe17d6cfa06c61a619");
      (2, "112cd562f390ce6a66520f457751389f");
      (5, "0a993eb8502aa4cdcfdfa67a69b64f89");
      (9, "0040a2709b25cddd862819921f3de761");
    ]

let test_bad_args () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Crypto.Aes.expand_key: key must be 16 bytes") (fun () ->
      ignore (Crypto.Aes.expand_key "short"));
  let key = Crypto.Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Crypto.Aes.encrypt_block: block must be 16 bytes")
    (fun () -> ignore (Crypto.Aes.encrypt_block key "x"));
  Alcotest.check_raises "rounds 0"
    (Invalid_argument "Crypto.Aes.encrypt_block: rounds must be in [1, 10]")
    (fun () -> ignore (Crypto.Aes.encrypt_block ~rounds:0 key (String.make 16 'b')))

let test_ctr_bad_args () =
  let entropy = Crypto.Entropy.bytes (Crypto.Entropy.create ~seed:1L) in
  List.iter
    (fun rounds ->
      Alcotest.check_raises
        (Printf.sprintf "rounds %d" rounds)
        (Invalid_argument "Crypto.Ctr.create: rounds must be in [1, 10]")
        (fun () -> ignore (Crypto.Ctr.create ~rounds ~entropy ())))
    [ 0; 11 ];
  Alcotest.check_raises "rekey_interval 0"
    (Invalid_argument "Crypto.Ctr.create: rekey_interval must be positive")
    (fun () -> ignore (Crypto.Ctr.create ~rekey_interval:0 ~entropy ()));
  (* rejected when the generator is built, not at its first draw *)
  Alcotest.check_raises "generator with AES-0"
    (Invalid_argument "Crypto.Ctr.create: rounds must be in [1, 10]")
    (fun () ->
      ignore
        (Rng.Generator.create
           (Rng.Scheme.Aes_ctr { rounds = 0 })
           ~entropy:(Crypto.Entropy.create ~seed:1L)))

let prop_aes_injective_per_key =
  QCheck2.Test.make ~count:100 ~name:"distinct blocks encrypt distinctly"
    QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
    (fun (b1, b2) ->
      let key = Crypto.Aes.expand_key "0123456789abcdef" in
      b1 = b2
      || Crypto.Aes.encrypt_block key b1 <> Crypto.Aes.encrypt_block key b2)

(* ------------------------------------------------------------------ *)
(* CTR mode *)

let fixed_entropy seed =
  let e = Crypto.Entropy.create ~seed in
  Crypto.Entropy.bytes e

let test_ctr_deterministic () =
  let a = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  for _ = 1 to 64 do
    Alcotest.(check int64) "same stream" (Crypto.Ctr.next_u64 a)
      (Crypto.Ctr.next_u64 b)
  done

let test_ctr_distinct_keys () =
  let a = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~entropy:(fixed_entropy 2L) () in
  Alcotest.(check bool) "different keys, different streams" true
    (Crypto.Ctr.next_u64 a <> Crypto.Ctr.next_u64 b)

let test_ctr_rekey () =
  let ctr = Crypto.Ctr.create ~rekey_interval:8 ~entropy:(fixed_entropy 3L) () in
  for _ = 1 to 40 do
    ignore (Crypto.Ctr.next_block ctr)
  done;
  Alcotest.(check int) "blocks" 40 (Crypto.Ctr.blocks_generated ctr);
  Alcotest.(check int) "rekeys" 4 (Crypto.Ctr.rekeys ctr)

let test_ctr_rounds_matter () =
  let a = Crypto.Ctr.create ~rounds:1 ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~rounds:10 ~entropy:(fixed_entropy 1L) () in
  Alcotest.(check bool) "1 vs 10 rounds differ" true
    (Crypto.Ctr.next_u64 a <> Crypto.Ctr.next_u64 b)

(* The first 32 draws of [fixed_entropy 1L] with a rekey every 4
   blocks (three rekeys), pinned bit for bit.  Under AES-1 a block's
   bytes 0-7 do not depend on the counter, so the first value of each
   pair is constant per key. *)
let keystream_aes1 =
  [
    0x210336fab99c2076L; 0xd94dc0067ec9951bL; 0x210336fab99c2076L; 0xd94dc0067ec995b8L;
    0x210336fab99c2076L; 0xd94dc0067ec995a6L; 0x210336fab99c2076L; 0xd94dc0067ec99511L;
    0xaba560766d770c63L; 0xaef9e986ad480109L; 0xaba560766d770c63L; 0xaef9e986ad4801c4L;
    0xaba560766d770c63L; 0xaef9e986ad480161L; 0xaba560766d770c63L; 0xaef9e986ad48016eL;
    0xcc00a5a629d2ddc2L; 0x52b325f11936355cL; 0xcc00a5a629d2ddc2L; 0x52b325f119363554L;
    0xcc00a5a629d2ddc2L; 0x52b325f1193635feL; 0xcc00a5a629d2ddc2L; 0x52b325f1193635e6L;
    0xc5cbe720a1cda26bL; 0x537aecf66083b4cfL; 0xc5cbe720a1cda26bL; 0x537aecf66083b488L;
    0xc5cbe720a1cda26bL; 0x537aecf66083b490L; 0xc5cbe720a1cda26bL; 0x537aecf66083b413L;
  ]

let keystream_aes10 =
  [
    0x8601ab3c64ad4a6bL; 0x78fc6bf8d365f5feL; 0xbd487607ed4530c7L; 0x0d79b8df6486e874L;
    0x6a6a7b0f75f6d385L; 0x393bf30d3d92108dL; 0x8ac090761e426e6dL; 0x19521737004dda85L;
    0xf4aa82be3f3f6097L; 0x2b56d0beefe0e232L; 0x28d5aab35a65ab03L; 0xdf90ad0fb4220ebfL;
    0x6b2cfdff48f7432bL; 0x8a14d46d022baad7L; 0xe2b33bafb3a5af83L; 0xffe3c95c3ce9eab0L;
    0xd5b3b8339cfe6e9fL; 0xc4bf12f185430b70L; 0xa8164d52adc36264L; 0xf243caa5b3b912e4L;
    0xf9d890c558768003L; 0x57f0f246100deafbL; 0xb848211cf3938f1eL; 0x87ee5976007c74adL;
    0x43f25f651cbf57d9L; 0xdcf942b57b223758L; 0xaccfcaa28e48fd4eL; 0x9352d8deb8efb16aL;
    0x4bfbf64011983d37L; 0x9ccdfbafcf558d33L; 0x81563c18bf10c084L; 0x4c094abf1d8ba959L;
  ]

let test_ctr_keystream_golden () =
  List.iter
    (fun (rounds, expected) ->
      let ctr =
        Crypto.Ctr.create ~rounds ~rekey_interval:4 ~entropy:(fixed_entropy 1L) ()
      in
      List.iteri
        (fun i v ->
          Alcotest.(check int64)
            (Printf.sprintf "AES-%d draw %d" rounds i)
            v (Crypto.Ctr.next_u64 ctr))
        expected;
      Alcotest.(check int) (Printf.sprintf "AES-%d rekeys" rounds) 3
        (Crypto.Ctr.rekeys ctr))
    [ (1, keystream_aes1); (10, keystream_aes10) ]

let u64_le s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let prop_ctr_u64_halves_of_block =
  QCheck2.Test.make ~count:50 ~name:"next_u64 pairs are the LE halves of next_block"
    QCheck2.Gen.(triple int64 (int_range 1 10) (int_range 1 6))
    (fun (seed, rounds, rekey_interval) ->
      let a = Crypto.Ctr.create ~rounds ~rekey_interval ~entropy:(fixed_entropy seed) () in
      let b = Crypto.Ctr.create ~rounds ~rekey_interval ~entropy:(fixed_entropy seed) () in
      List.for_all
        (fun _ ->
          let lo = Crypto.Ctr.next_u64 a in
          let hi = Crypto.Ctr.next_u64 a in
          let block = Crypto.Ctr.next_block b in
          Int64.equal lo (u64_le block 0) && Int64.equal hi (u64_le block 8))
        (List.init 24 Fun.id))

let prop_ctr_no_short_cycles =
  QCheck2.Test.make ~count:20 ~name:"no repeated u64 in 512 draws"
    QCheck2.Gen.int64
    (fun seed ->
      let ctr = Crypto.Ctr.create ~entropy:(fixed_entropy seed) () in
      let seen = Hashtbl.create 512 in
      let ok = ref true in
      for _ = 1 to 512 do
        let v = Crypto.Ctr.next_u64 ctr in
        if Hashtbl.mem seen v then ok := false;
        Hashtbl.replace seen v ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Entropy *)

let test_entropy_deterministic_per_seed () =
  let a = Crypto.Entropy.create ~seed:5L and b = Crypto.Entropy.create ~seed:5L in
  Alcotest.(check string) "same bytes" (Crypto.Entropy.bytes a 33)
    (Crypto.Entropy.bytes b 33);
  let c = Crypto.Entropy.create ~seed:6L
  and d = Crypto.Entropy.create ~seed:5L in
  Alcotest.(check bool) "different seed differs" true
    (Crypto.Entropy.bytes c 33 <> Crypto.Entropy.bytes d 33)

let test_entropy_draw_count () =
  let e = Crypto.Entropy.create ~seed:1L in
  ignore (Crypto.Entropy.bytes e 17);
  Alcotest.(check int) "17 bytes = 3 draws" 3 (Crypto.Entropy.draws e)

(* ------------------------------------------------------------------ *)
(* Rng schemes *)

let prop_pseudo_unstep =
  QCheck2.Test.make ~count:300 ~name:"unstep inverts step" QCheck2.Gen.int64
    (fun s ->
      let s = if Int64.equal s 0L then 1L else s in
      Int64.equal (Rng.Pseudo.unstep (Rng.Pseudo.step s)) s
      && Int64.equal (Rng.Pseudo.step (Rng.Pseudo.unstep s)) s)

let test_scheme_metadata () =
  Alcotest.(check (list string)) "Table I order"
    [ "pseudo"; "AES-1"; "AES-10"; "RDRAND" ]
    (List.map Rng.Scheme.name Rng.Scheme.all);
  Alcotest.(check bool) "pseudo state in memory" true
    (Rng.Scheme.memory_resident_state Rng.Scheme.Pseudo);
  Alcotest.(check bool) "AES state out of memory" false
    (Rng.Scheme.memory_resident_state Rng.Scheme.aes10);
  List.iter
    (fun (n, sec) ->
      match Rng.Scheme.of_name n with
      | Some s ->
          Alcotest.(check string) n sec
            (Rng.Scheme.security_to_string (Rng.Scheme.security s))
      | None -> Alcotest.failf "of_name %s" n)
    [ ("pseudo", "None"); ("AES-1", "Low"); ("AES-10", "High"); ("RDRAND", "High") ]

let test_generator_streams () =
  let e = Crypto.Entropy.create ~seed:3L in
  let g = Rng.Generator.create ~seed_state:99L Rng.Scheme.Pseudo ~entropy:e in
  (* the pseudo stream is exactly step/output over the state word *)
  let s1 = Rng.Pseudo.step 99L in
  Alcotest.(check int64) "pseudo draw 1" (Rng.Pseudo.output s1) (Rng.Generator.next_u64 g);
  Alcotest.(check int64) "pseudo state tracked" s1 (Rng.Generator.pseudo_state g);
  Rng.Generator.set_pseudo_state g 99L;
  Alcotest.(check int64) "attacker reset replays" (Rng.Pseudo.output s1)
    (Rng.Generator.next_u64 g)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [
      ( "aes",
        [
          Alcotest.test_case "sbox values" `Quick test_sbox;
          Alcotest.test_case "sbox bijective" `Quick test_sbox_bijective;
          Alcotest.test_case "FIPS-197 appendix B" `Quick test_fips197_appendix_b;
          Alcotest.test_case "FIPS-197 appendix C" `Quick test_fips197_appendix_c;
          Alcotest.test_case "SP800-38A ECB" `Quick test_nist_ecb_vector;
          Alcotest.test_case "reduced rounds differ" `Quick test_reduced_rounds_differ;
          Alcotest.test_case "reduced rounds golden" `Quick test_reduced_rounds_golden;
          Alcotest.test_case "argument checks" `Quick test_bad_args;
          qt prop_aes_injective_per_key;
        ] );
      ( "ctr",
        [
          Alcotest.test_case "deterministic" `Quick test_ctr_deterministic;
          Alcotest.test_case "distinct keys" `Quick test_ctr_distinct_keys;
          Alcotest.test_case "rekey" `Quick test_ctr_rekey;
          Alcotest.test_case "rounds matter" `Quick test_ctr_rounds_matter;
          qt prop_ctr_no_short_cycles;
          Alcotest.test_case "keystream golden" `Quick test_ctr_keystream_golden;
          Alcotest.test_case "argument checks" `Quick test_ctr_bad_args;
          qt prop_ctr_u64_halves_of_block;
        ] );
      ( "rng",
        [
          Alcotest.test_case "scheme metadata" `Quick test_scheme_metadata;
          Alcotest.test_case "generator streams" `Quick test_generator_streams;
          qt prop_pseudo_unstep;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_entropy_deterministic_per_seed;
          Alcotest.test_case "draw accounting" `Quick test_entropy_draw_count;
        ] );
    ]
