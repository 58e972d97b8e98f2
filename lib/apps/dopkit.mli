(** Shared machinery for building DOP exploits against the app models.

    The central abstraction is {e how the attacker learns the frame
    layout}:

    - {!binary_offsets} — static analysis of the (defense-applied)
      binary.  Exact for every static defense; blind against
      Smokestack, whose binary only shows the opaque total slab.
    - {!guessed_offsets} — a brute-force guess: assume the frame is laid
      out by one of the Algorithm-1 permutations of the slot multiset
      the attacker knows from the source, picked by [seed].  Against a
      Smokestack frame this is right with probability ~1/n!.

    Both return offsets {e relative to a chosen buffer variable}, which
    is all a DOP overflow needs.

    Every hand-written exploit has one entry point, an {!exploit}: it
    crafts its request chunks from the layout it learned, runs them
    through {!attempt}, and reports the verdict with the run's stats.
    The batch harnesses read the verdict ({!verdict_of}); the server
    runtime also reads [stats] and [requests]. *)

type rel_layout = (string * int) list
(** Variable name → signed byte offset from the buffer start. *)

type result = {
  verdict : Attacks.Verdict.t;
  stats : Machine.Exec.stats option;
      (** [None] when the craft was impossible and nothing ran. *)
  requests : int;  (** request chunks delivered to the instance *)
}

type exploit =
  ?backend:Machine.Backend.t -> Defenses.Defense.applied -> seed:int64 -> result
(** One attempt of a hand-written exploit against a defense-applied
    program: fresh process, per-run entropy and layout guess from
    [seed], engine [?backend] (default {!Machine.Backend.default}). *)

val binary_offsets :
  Ir.Prog.t -> func:string -> buffer:string -> vars:string list -> rel_layout option
(** [None] when the binary doesn't reveal the buffer or any requested
    variable (the Smokestack case). *)

val chain_offsets :
  Ir.Prog.t ->
  chain:string list ->
  buffer:string * string ->
  vars:(string * string) list ->
  rel_layout option
(** Cross-frame variant: [chain] is the call path from outermost to the
    vulnerable function; [buffer] and [vars] are [(func, var)] pairs.
    Returned names are the variable names. *)

val guessed_offsets :
  slots:(string * int * int) list ->
  buffer:string ->
  vars:string list ->
  fid_slot:bool ->
  seed:int64 ->
  rel_layout
(** [slots] is the attacker's source-level knowledge:
    [(name, size, alignment)] per local in declaration order.
    [fid_slot] adds the hidden 8-byte Smokestack identifier slot to the
    multiset (Kerckhoffs: the defense design is public).  The guess is
    a uniformly drawn Algorithm-1 row over those slots. *)

val guessed_slab_offsets :
  slots:(string * int * int) list ->
  vars:string list ->
  fid_slot:bool ->
  seed:int64 ->
  (string * int) list
(** Like {!guessed_offsets} but offsets are relative to the slab base —
    what an attacker combines with the [__ss_total] address visible in
    the hardened binary to aim an absolute write. *)

val goal_in_output : string -> Machine.Exec.stats -> bool
(** Does the program's output contain the marker? *)

val attempt :
  ?backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  goal:string ->
  (unit -> string list) ->
  result
(** One exploit attempt: force the craft, deliver its chunks with
    {!Runner.run_chunks} (fresh state and entropy from [seed]) and
    classify the outcome, the goal being met when [goal] appears in the
    output.  A craft that raises [Invalid_argument] (the layout guess
    is geometrically impossible) runs nothing and yields
    [{ verdict = No_effect; stats = None; requests = 0 }]. *)

val verdict_of :
  exploit -> Defenses.Defense.applied -> seed:int64 -> Attacks.Verdict.t
(** The attempt's verdict alone, for harnesses that count verdicts. *)
