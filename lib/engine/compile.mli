(** IR-to-bytecode compiler for the fast execution engine.

    Flattens each {!Ir.Func.t} into a dense instruction array with every
    name pre-resolved: block labels become instruction indices, SSA
    values become integer register slots, globals and function
    references become immediate addresses/tokens, direct callees become
    function indices, intrinsic names become slots into a per-run
    closure table.  {!Interp} executes the result with no hashtable
    lookups or list traversals on the hot path.

    Resolution failures never fail compilation: the reference
    interpreter only raises when a broken operand is actually
    evaluated, so they compile to {!constructor:Strap} operands (or the
    {!constructor:Otrap} op for branch targets) that replay the exact
    reference exception at the exact evaluation point.  Registers
    outside the function's register count (IR the verifier rejects)
    are handled the same way: reads trap, and writes go to a spare
    frame slot followed by {!constructor:Obad_reg}, so frames can be
    accessed without bounds checks. *)

type trap =
  | Unknown_global of string
  | Unknown_func_ref of string
  | Unknown_callee of string
  | Missing_label
  | Bad_register

type src = Sreg of int | Simm of int64 | Strap of trap

type op =
  | Obinop of { dst : int; cost : float; op : Ir.Instr.binop; lhs : src; rhs : src }
  | Oicmp of { dst : int; op : Ir.Instr.icmp; lhs : src; rhs : src }
  | Oselect of { dst : int; cond : src; if_true : src; if_false : src }
  | Osext of { dst : int; width : int; value : src }
  | Otrunc of { dst : int; width : int; value : src }
  | Ogep of { dst : int; base : src; offset : int; index : src; scale : int }
  | Oload of { dst : int; width : int; addr : src }
  | Ostore of { width : int; value : src; addr : src }
  | Oalloca of { dst : int; elt : int; align : int; count : src option }
  | Ocall of { dst : int; fidx : int; args : src array }
  | Obuiltin of { dst : int; name : string; args : src array }
  | Ocall_unknown of { name : string; args : src array }
  | Ocall_ind of { dst : int; callee : src; args : src array }
  | Ointrinsic of { dst : int; slot : int; name : string; args : src array }
  | Ojmp of int
  | Ocondbr of { cond : src; if_true : int; if_false : int }
  | Oret of src
  | Ounreachable of string
  | Otrap
  | Obad_reg

type bfunc = {
  fname : string;
  param_regs : int array;
  nregs : int;
      (** frame slots: the function's registers, then a spare slot that
          takes writes to out-of-range registers *)
  code : op array;
  src_blocks : Ir.Func.block list;
  src_shape : (Ir.Instr.t list * Ir.Instr.terminator) array;
}

type program = {
  src : Ir.Prog.t;
  src_funcs : Ir.Func.t list;
  funcs : bfunc array;
  index : (string, int) Hashtbl.t;  (** function name -> index *)
  intrinsic_names : string array;  (** intrinsic slot -> name *)
}

val token_base : int
(** = {!Machine.Exec.func_token_base}; function [i] has token
    [token_base + 16 * i], so indirect-call tokens resolve to function
    indices with two integer operations. *)

val compile : Machine.Exec.state -> program
(** Compiles the state's program against its global/function-token
    layout (which is deterministic per program, so the result is
    reusable across fresh states of the same program). *)

val valid : program -> Ir.Prog.t -> bool
(** Whether the compiled image still matches the (mutable) IR it was
    flattened from — physical identity of the function list, each
    function's block list, and each block's instruction list and
    terminator. *)
