type t = {
  rounds : int;
  rekey_interval : int;
  entropy : int -> string;
  mutable key : Aes.key;
  mutable nonce0 : int; (* nonce bytes 0-3 as a column word *)
  mutable nonce1 : int; (* nonce bytes 4-7 *)
  mutable counter : int64; (* universal call counter *)
  mutable since_rekey : int;
  mutable total_blocks : int;
  mutable rekeys : int;
  out : int array; (* the last keystream block, as column words *)
  mutable pending : int64; (* second half of the last block, if [has_pending] *)
  mutable has_pending : bool;
}

let fresh_key entropy = Aes.expand_key (entropy 16)

let create ?(rounds = Aes.standard_rounds) ?(rekey_interval = 65536) ~entropy () =
  if rounds < 1 || rounds > Aes.standard_rounds then
    invalid_arg "Crypto.Ctr.create: rounds must be in [1, 10]";
  if rekey_interval <= 0 then
    invalid_arg "Crypto.Ctr.create: rekey_interval must be positive";
  (* The initial nonce is drawn before the key, a rekey draws the key
     first: both orders are part of the pinned keystream. *)
  let nonce = entropy 8 in
  let key = fresh_key entropy in
  {
    rounds;
    rekey_interval;
    entropy;
    key;
    nonce0 = Aes.column_word nonce 0;
    nonce1 = Aes.column_word nonce 4;
    counter = 0L;
    since_rekey = 0;
    total_blocks = 0;
    rekeys = 0;
    out = Array.make 4 0;
    pending = 0L;
    has_pending = false;
  }

let rekey t =
  t.key <- fresh_key t.entropy;
  let nonce = t.entropy 8 in
  t.nonce0 <- Aes.column_word nonce 0;
  t.nonce1 <- Aes.column_word nonce 4;
  t.since_rekey <- 0;
  t.rekeys <- t.rekeys + 1

(* Encrypts the block nonce || little-endian counter into [t.out]. *)
let advance t =
  if t.since_rekey >= t.rekey_interval then rekey t;
  let ctr = t.counter in
  t.counter <- Int64.add ctr 1L;
  t.since_rekey <- t.since_rekey + 1;
  t.total_blocks <- t.total_blocks + 1;
  Aes.encrypt_words t.key ~rounds:t.rounds t.nonce0 t.nonce1
    (Int64.to_int ctr land 0xffffffff)
    (Int64.to_int (Int64.shift_right_logical ctr 32))
    t.out

let next_block t =
  advance t;
  Aes.block_of_words t.out

(* Block bytes 8h..8h+7 read little-endian are column words 2h, 2h+1. *)
let u64_of_words lo hi = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let next_u64 t =
  if t.has_pending then begin
    t.has_pending <- false;
    t.pending
  end
  else begin
    advance t;
    let out = t.out in
    t.pending <- u64_of_words out.(2) out.(3);
    t.has_pending <- true;
    u64_of_words out.(0) out.(1)
  end

let blocks_generated t = t.total_blocks
let rekeys t = t.rekeys
let rounds t = t.rounds
