(* GF(2^8) doubling with the AES reduction polynomial x^8+x^4+x^3+x+1. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

(* The S-box is derived rather than transcribed: multiplicative inverse
   in GF(2^8) followed by the FIPS-197 affine transformation.  Inverses
   come from exp/log tables over the generator 3 (= x+1):
   a^-1 = 3^(255 - log3 a).  The known-answer tests pin it against
   published vectors.  Every table here is computed eagerly at module
   init — a module-level [lazy] would be a concurrent Lazy.force hazard
   once pool jobs run AES on several domains. *)
let sbox_table =
  let exp = Array.make 255 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lxor xtime !x
  done;
  Array.init 256 (fun x ->
      let b = if x = 0 then 0 else exp.((255 - log.(x)) mod 255) in
      let rotl8 v k = ((v lsl k) lor (v lsr (8 - k))) land 0xff in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let sbox x = sbox_table.(x land 0xff)

(* A column is a little-endian 32-bit word: byte r (bits 8r..8r+7) is
   row r.  [te0.(x)] is the MixColumns image of the column (S(x), 0, 0,
   0), i.e. (2s, s, s, 3s); a byte entering at row r contributes
   [te0] rotated left by 8r bits, which is [te1]..[te3]. *)
let rotl32 w k = ((w lsl k) lor (w lsr (32 - k))) land 0xffffffff

let te0 =
  Array.map
    (fun s ->
      let s2 = xtime s in
      s2 lor (s lsl 8) lor (s lsl 16) lor ((s2 lxor s) lsl 24))
    sbox_table

let te1 = Array.map (fun w -> rotl32 w 8) te0
let te2 = Array.map (fun w -> rotl32 w 16) te0
let te3 = Array.map (fun w -> rotl32 w 24) te0

type key = int array (* 44 round-key words: word 4r+c is column c of round key r *)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* Output column c takes row r from input column (c + r) mod 4
   (ShiftRows), so [a]..[d] are the columns c, c+1, c+2, c+3. *)
let[@inline] round_word a b c d k =
  te0.(a land 0xff)
  lxor te1.((b lsr 8) land 0xff)
  lxor te2.((c lsr 16) land 0xff)
  lxor te3.((d lsr 24) land 0xff)
  lxor k

(* The final round has no MixColumns: S-box, ShiftRows, AddRoundKey. *)
let[@inline] final_word a b c d k =
  sbox_table.(a land 0xff)
  lor (sbox_table.((b lsr 8) land 0xff) lsl 8)
  lor (sbox_table.((c lsr 16) land 0xff) lsl 16)
  lor (sbox_table.((d lsr 24) land 0xff) lsl 24)
  lxor k

let column_word s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

let expand_key k =
  if String.length k <> 16 then
    invalid_arg "Crypto.Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- column_word k (4 * i)
  done;
  for i = 4 to 43 do
    let t = w.(i - 1) in
    let t =
      if i land 3 = 0 then
        (* SubWord (RotWord t) xor Rcon; RotWord moves row 1 to row 0,
           a right rotation of the column word. *)
        let r = rotl32 t 24 in
        final_word r r r r rcon.((i / 4) - 1)
      else t
    in
    w.(i) <- w.(i - 4) lxor t
  done;
  w

let standard_rounds = 10

let encrypt_words rk ~rounds w0 w1 w2 w3 out =
  let s0 = ref (w0 lxor rk.(0))
  and s1 = ref (w1 lxor rk.(1))
  and s2 = ref (w2 lxor rk.(2))
  and s3 = ref (w3 lxor rk.(3)) in
  for r = 1 to rounds - 1 do
    let k = 4 * r in
    let t0 = round_word !s0 !s1 !s2 !s3 rk.(k)
    and t1 = round_word !s1 !s2 !s3 !s0 rk.(k + 1)
    and t2 = round_word !s2 !s3 !s0 !s1 rk.(k + 2)
    and t3 = round_word !s3 !s0 !s1 !s2 rk.(k + 3) in
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3
  done;
  let k = 4 * rounds in
  out.(0) <- final_word !s0 !s1 !s2 !s3 rk.(k);
  out.(1) <- final_word !s1 !s2 !s3 !s0 rk.(k + 1);
  out.(2) <- final_word !s2 !s3 !s0 !s1 rk.(k + 2);
  out.(3) <- final_word !s3 !s0 !s1 !s2 rk.(k + 3)

let block_of_words w =
  let b = Bytes.create 16 in
  for c = 0 to 3 do
    Bytes.set_int32_le b (4 * c) (Int32.of_int w.(c))
  done;
  Bytes.unsafe_to_string b

let encrypt_block ?(rounds = standard_rounds) rk block =
  if String.length block <> 16 then
    invalid_arg "Crypto.Aes.encrypt_block: block must be 16 bytes";
  if rounds < 1 || rounds > standard_rounds then
    invalid_arg "Crypto.Aes.encrypt_block: rounds must be in [1, 10]";
  let out = Array.make 4 0 in
  encrypt_words rk ~rounds (column_word block 0) (column_word block 4)
    (column_word block 8) (column_word block 12) out;
  block_of_words out
