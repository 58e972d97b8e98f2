(** AES-128 block cipher (FIPS-197), software implementation.

    The paper accelerates its permutation-index generator with the Intel
    AES-NI instructions; this is the software equivalent.  The number of
    rounds is configurable to reproduce the paper's {b AES-1} (one
    round, low security) and {b AES-10} (ten rounds, standard AES)
    operating points.

    {2 Representation}

    The 16-byte block is the FIPS-197 4x4 column-major byte matrix, held
    as four 32-bit column words in OCaml [int]s.  A column word is
    little-endian: byte [r] (bits [8r..8r+7]) is row [r], so block bytes
    [4c..4c+3] are column [c].  The expanded key is 44 such words (word
    [4r+c] is column [c] of round key [r]).

    A full round (SubBytes, ShiftRows, MixColumns, AddRoundKey) is four
    lookups per output column into four 256-entry T-tables: [T0.(x)] is
    the MixColumns image of [S(x)] entering at row 0, the column
    [(2·S(x), S(x), S(x), 3·S(x))], and [T1..T3] are [T0] rotated left
    by 8, 16 and 24 bits for rows 1..3.  The final round uses plain
    S-box lookups.  All tables are built eagerly at module
    initialisation, so concurrent domains may encrypt without
    synchronisation.

    {b Not constant-time.}  Table lookups indexed by key-dependent
    state leak through host data caches.  That is outside the
    reproduction's threat model: the attacker reads and writes VM
    memory only and cannot observe the host's caches.  The paper's
    AES-NI is constant-time.

    Only encryption is provided — counter mode never needs the inverse
    cipher. *)

type key
(** An expanded AES-128 key schedule (44 round-key words). *)

val expand_key : string -> key
(** [expand_key k] expands a 16-byte key. Raises [Invalid_argument] if
    [String.length k <> 16]. *)

val standard_rounds : int
(** 10 — the FIPS-197 round count for AES-128. *)

val encrypt_block : ?rounds:int -> key -> string -> string
(** [encrypt_block ?rounds key block] encrypts one 16-byte block.
    [rounds] defaults to {!standard_rounds}; it must be in [1, 10].
    With fewer than 10 rounds the schedule is truncated: the cipher runs
    [rounds - 1] full rounds plus the final (MixColumns-free) round,
    mirroring how a reduced-round AES-NI loop behaves.  Raises
    [Invalid_argument] on a block that is not 16 bytes. *)

val encrypt_words :
  key -> rounds:int -> int -> int -> int -> int -> int array -> unit
(** [encrypt_words key ~rounds w0 w1 w2 w3 out] is the kernel behind
    {!encrypt_block}: it encrypts the block whose column words are
    [w0..w3] (each in [[0, 2^32)]) and writes the four output column
    words to [out.(0..3)].  It allocates nothing and does no argument
    checks: the caller guarantees [1 <= rounds <= 10] and
    [Array.length out >= 4] ({!Ctr.create} validates [rounds] once, so
    the per-draw path checks nothing). *)

val column_word : string -> int -> int
(** [column_word s off] is the column word of bytes [s.[off..off+3]]. *)

val block_of_words : int array -> string
(** [block_of_words w] is the 16-byte block whose column words are
    [w.(0..3)]. *)

val sbox : int -> int
(** The AES S-box, exposed for the known-answer tests. *)
