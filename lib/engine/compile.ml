(* Flattening Ir.Func.t into dense bytecode.

   Everything the reference interpreter resolves per-instruction through
   hashtables or list walks is resolved once here: block labels become
   instruction indices, globals and function references become immediate
   addresses/tokens, direct callees become function indices, intrinsic
   names become slots into a per-run closure table.  The runtime loop in
   Interp then touches only arrays.

   Resolution failures (unknown global, unknown function reference or
   callee, missing label) must NOT fail at compile time: the reference
   interpreter only raises when the broken operand is actually
   evaluated — and some operands are evaluated lazily (Select reads only
   the taken arm).  A failed resolution therefore compiles to an [Strap]
   operand (or a trailing trap op for branch targets) that replays the
   reference exception at the exact evaluation point.

   Registers outside [0, nregs) (IR the verifier rejects) get the same
   treatment, since frames are accessed unchecked: a read compiles to a
   [Bad_register] trap, and a write goes to a spare frame slot and is
   followed by an [Obad_reg] op, which raises the reference's
   out-of-bounds error at the point the reference's write would. *)

type trap =
  | Unknown_global of string  (* Invalid_argument, as Exec.global_addr *)
  | Unknown_func_ref of string  (* Memory.Fault, as Exec's eval *)
  | Unknown_callee of string  (* Memory.Fault, as Exec's do_call *)
  | Missing_label  (* Not_found, as Hashtbl.find in Exec's run_block *)
  | Bad_register  (* Invalid_argument, as Exec's register array *)

type src = Sreg of int | Simm of int64 | Strap of trap

type op =
  | Obinop of { dst : int; cost : float; op : Ir.Instr.binop; lhs : src; rhs : src }
  | Oicmp of { dst : int; op : Ir.Instr.icmp; lhs : src; rhs : src }
  | Oselect of { dst : int; cond : src; if_true : src; if_false : src }
  | Osext of { dst : int; width : int; value : src }
  | Otrunc of { dst : int; width : int; value : src }
  | Ogep of { dst : int; base : src; offset : int; index : src; scale : int }
      (** absent index encodes as [index = Simm 0, scale = 0] *)
  | Oload of { dst : int; width : int; addr : src }
  | Ostore of { width : int; value : src; addr : src }
  | Oalloca of { dst : int; elt : int; align : int; count : src option }
  | Ocall of { dst : int; fidx : int; args : src array }  (** dst = -1: none *)
  | Obuiltin of { dst : int; name : string; args : src array }
  | Ocall_unknown of { name : string; args : src array }
      (** callee is neither a function nor an extern: evaluate the
          arguments (they may trap first, as in the reference), then
          fault *)
  | Ocall_ind of { dst : int; callee : src; args : src array }
  | Ointrinsic of { dst : int; slot : int; name : string; args : src array }
  | Ojmp of int
  | Ocondbr of { cond : src; if_true : int; if_false : int }
  | Oret of src  (** void returns encode as [Oret (Simm 0)] *)
  | Ounreachable of string  (** function name, for the fault message *)
  | Otrap  (** jump target of branches to labels that do not exist *)
  | Obad_reg  (** follows a write to an out-of-range register *)

type bfunc = {
  fname : string;
  param_regs : int array;
  nregs : int;  (* frame slots: the registers, then the spare slot *)
  code : op array;
  src_blocks : Ir.Func.block list;  (* spine identity, for cache checks *)
  src_shape : (Ir.Instr.t list * Ir.Instr.terminator) array;
      (* per-block instruction-list spine + terminator, same order *)
}

type program = {
  src : Ir.Prog.t;
  src_funcs : Ir.Func.t list;  (* spine identity *)
  funcs : bfunc array;
  index : (string, int) Hashtbl.t;
  intrinsic_names : string array;  (* slot -> name *)
}

let token_base = Machine.Exec.func_token_base

(* ------------------------------------------------------------------ *)

type ctx = {
  mutable nregs : int;  (* the current function's register count *)
  globals : (string, int) Hashtbl.t;
  func_tokens : (string, int) Hashtbl.t;
  func_index : (string, int) Hashtbl.t;
  prog : Ir.Prog.t;
  intrinsic_slots : (string, int) Hashtbl.t;
  mutable slot_names : string list;  (* reverse order *)
  mutable next_slot : int;
}

let in_range ctx r = r >= 0 && r < ctx.nregs

let resolve ctx = function
  | Ir.Instr.Reg r -> if in_range ctx r then Sreg r else Strap Bad_register
  | Ir.Instr.Imm i -> Simm i
  | Ir.Instr.Global g -> (
      match Hashtbl.find_opt ctx.globals g with
      | Some a -> Simm (Int64.of_int a)
      | None -> Strap (Unknown_global g))
  | Ir.Instr.Func_ref fn -> (
      match Hashtbl.find_opt ctx.func_tokens fn with
      | Some t -> Simm (Int64.of_int t)
      | None -> Strap (Unknown_func_ref fn))

let intrinsic_slot ctx name =
  match Hashtbl.find_opt ctx.intrinsic_slots name with
  | Some s -> s
  | None ->
      let s = ctx.next_slot in
      ctx.next_slot <- s + 1;
      ctx.slot_names <- name :: ctx.slot_names;
      Hashtbl.replace ctx.intrinsic_slots name s;
      s

(* [out] maps an out-of-range register to the spare slot [ctx.nregs] *)
let compile_instr ctx (i : Ir.Instr.t) : op =
  let src o = resolve ctx o in
  let srcs l = Array.of_list (List.map src l) in
  let out d = if in_range ctx d then d else ctx.nregs in
  let dst_of = function Some d -> out d | None -> -1 in
  match i with
  | Binop { dst; op; lhs; rhs } ->
      let cost =
        match op with
        | Sdiv | Udiv | Srem | Urem -> Machine.Cost.div
        | _ -> Machine.Cost.alu
      in
      Obinop { dst = out dst; cost; op; lhs = src lhs; rhs = src rhs }
  | Icmp { dst; op; lhs; rhs } ->
      Oicmp { dst = out dst; op; lhs = src lhs; rhs = src rhs }
  | Select { dst; cond; if_true; if_false } ->
      Oselect
        {
          dst = out dst;
          cond = src cond;
          if_true = src if_true;
          if_false = src if_false;
        }
  | Sext { dst; width; value } -> Osext { dst = out dst; width; value = src value }
  | Trunc { dst; width; value } -> Otrunc { dst = out dst; width; value = src value }
  | Gep { dst; base; offset; index } ->
      let index, scale =
        match index with None -> (Simm 0L, 0) | Some (i, scale) -> (src i, scale)
      in
      Ogep { dst = out dst; base = src base; offset; index; scale }
  | Load { dst; ty; addr } ->
      Oload { dst = out dst; width = Ir.Ty.scalar_width ty; addr = src addr }
  | Store { ty; value; addr } ->
      Ostore { width = Ir.Ty.scalar_width ty; value = src value; addr = src addr }
  | Alloca { dst; ty; count; name = _ } ->
      Oalloca
        {
          dst = out dst;
          elt = Ir.Ty.size ty;
          align = max 1 (Ir.Ty.alignment ty);
          count = Option.map src count;
        }
  | Call { dst; callee; args } -> (
      let args = srcs args in
      let dst = dst_of dst in
      match Hashtbl.find_opt ctx.func_index callee with
      | Some fidx -> Ocall { dst; fidx; args }
      | None ->
          if Ir.Prog.is_extern ctx.prog callee then
            Obuiltin { dst; name = callee; args }
          else Ocall_unknown { name = callee; args })
  | Call_ind { dst; callee; args } ->
      Ocall_ind { dst = dst_of dst; callee = src callee; args = srcs args }
  | Intrinsic { dst; name; args } ->
      Ointrinsic
        { dst = dst_of dst; slot = intrinsic_slot ctx name; name; args = srcs args }

let compile_func ctx (f : Ir.Func.t) : bfunc =
  ctx.nregs <- max 1 (Ir.Func.reg_count f);
  let out_of_range r = not (in_range ctx r) in
  let bad_params = List.exists (fun (r, _) -> out_of_range r) f.params in
  (* each instruction's ops: itself, then [Obad_reg] after a bad write *)
  let ops i =
    let op = compile_instr ctx i in
    match Ir.Instr.defined_reg i with
    | Some d when out_of_range d -> [ op; Obad_reg ]
    | _ -> [ op ]
  in
  let blocks =
    List.map
      (fun (b : Ir.Func.block) -> (b, List.concat_map ops b.instrs))
      f.blocks
  in
  (* Layout: an [Obad_reg] prologue if a parameter is out of range,
     blocks in order with one op per terminator after their
     instructions' ops, then a single trailing trap op shared by
     branches to labels that do not exist. *)
  let starts = Hashtbl.create 16 in
  let len =
    List.fold_left
      (fun off ((b : Ir.Func.block), body) ->
        Hashtbl.replace starts b.label off;
        off + List.length body + 1)
      (if bad_params then 1 else 0)
      blocks
  in
  let trap_idx = len in
  let target l =
    match Hashtbl.find_opt starts l with Some i -> i | None -> trap_idx
  in
  let code = Array.make (len + 1) Otrap in
  let pos = ref 0 in
  let emit op =
    code.(!pos) <- op;
    incr pos
  in
  if bad_params then emit Obad_reg;
  List.iter
    (fun ((b : Ir.Func.block), body) ->
      List.iter emit body;
      emit
        (match b.term with
        | Ir.Instr.Ret None -> Oret (Simm 0L)
        | Ir.Instr.Ret (Some v) -> Oret (resolve ctx v)
        | Ir.Instr.Br l -> Ojmp (target l)
        | Ir.Instr.Cond_br { cond; if_true; if_false } ->
            Ocondbr
              {
                cond = resolve ctx cond;
                if_true = target if_true;
                if_false = target if_false;
              }
        | Ir.Instr.Unreachable -> Ounreachable f.name))
    blocks;
  {
    fname = f.name;
    param_regs =
      Array.of_list
        (List.map
           (fun (r, _) -> if out_of_range r then ctx.nregs else r)
           f.params);
    nregs = ctx.nregs + 1;
    code;
    src_blocks = f.blocks;
    src_shape =
      Array.of_list
        (List.map (fun (b : Ir.Func.block) -> (b.instrs, b.term)) f.blocks);
  }

let compile (st : Machine.Exec.state) : program =
  let prog = st.prog in
  let func_index = Hashtbl.create 32 in
  List.iteri (fun i (f : Ir.Func.t) -> Hashtbl.replace func_index f.name i) prog.funcs;
  let ctx =
    {
      nregs = 0;
      globals = st.globals;
      func_tokens = st.func_tokens;
      func_index;
      prog;
      intrinsic_slots = Hashtbl.create 8;
      slot_names = [];
      next_slot = 0;
    }
  in
  let funcs = Array.of_list (List.map (compile_func ctx) prog.funcs) in
  {
    src = prog;
    src_funcs = prog.funcs;
    funcs;
    index = func_index;
    intrinsic_names = Array.of_list (List.rev ctx.slot_names);
  }

(* A compiled program stays valid while the IR it was flattened from is
   physically unchanged — passes replace the [blocks] list or a block's
   [instrs]/[term] fields, all of which we snapshot by identity. *)
let valid (p : program) (prog : Ir.Prog.t) =
  p.src == prog
  && p.src_funcs == prog.funcs
  &&
  (* same spine => same length and same Func.t values, positionally *)
  let i = ref 0 and ok = ref true in
  List.iter
    (fun (f : Ir.Func.t) ->
      let bf = p.funcs.(!i) in
      incr i;
      if bf.src_blocks != f.blocks then ok := false
      else
        List.iteri
          (fun j (b : Ir.Func.block) ->
            let instrs, term = bf.src_shape.(j) in
            if b.instrs != instrs || b.term != term then ok := false)
          f.blocks)
    prog.funcs;
  !ok
