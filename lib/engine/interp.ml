(* Flat dispatch loop over compiled bytecode.

   Executes against the same Machine.Exec.state the reference
   interpreter uses, so every intrinsic, defense installation and
   adaptive-input callback works unchanged.  Observable behaviour must
   be bit-identical to Machine.Exec.run — same outcomes, same output,
   same float cycle accumulation (same charges in the same order), same
   instruction/call counts, same trace events.  test/test_engine.ml
   enforces this differentially; when editing here, keep every charge
   and side effect in the reference interpreter's order.

   Cycle accounting uses an unboxed one-element [floatarray]
   accumulator instead of charging the (boxed) [st.cycles] field per
   instruction.  Float addition is not associative, so charges are
   still applied one at a time in reference order — only the storage
   differs, which keeps the bits identical.  The accumulator is flushed
   to [st.cycles] around every external closure (builtins, intrinsics,
   trace hooks) because those may read or charge [st.cycles]
   themselves, and re-synced afterwards on both the normal and the
   exception path.

   Registers live in one [Bytes.t] frame per call, [nregs] native-endian
   64-bit slots, so reading or writing a register boxes nothing.
   Arithmetic is computed in the dispatch arm, loads and stores move
   values between memory and frame slots through Memory.load_into /
   store_from, the caller fills the callee's frame straight from its
   operands, and [Oret] writes the caller's destination slot.  So the
   only arms that allocate are calls (the callee frame), builtins and
   intrinsics (their [int64 array] arguments), trace events and
   faults. *)

open Compile
module Exec = Machine.Exec
module Memory = Machine.Memory
module Cost = Machine.Cost

(* Compiled-program cache, keyed by physical program identity and
   revalidated against the mutable IR (passes run strictly before
   execution, so in the steady state — one applied defense, many runs —
   every run after the first is a cache hit).  The MRU list is
   domain-local: each domain compiles and caches independently, so
   concurrent jobs on a Sched.Pool never contend or observe each
   other's evictions, and the single-domain path costs one extra array
   read per run (Domain.DLS.get). *)
let cache_key : Compile.program list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cache_cap = 8

let compiled_for (st : Exec.state) =
  let cache = Domain.DLS.get cache_key in
  match List.find_opt (fun p -> Compile.valid p st.prog) !cache with
  | Some p ->
      cache := p :: List.filter (fun q -> q != p) !cache;
      p
  | None ->
      let p = Compile.compile st in
      cache :=
        p :: (if List.length !cache >= cache_cap then List.filteri (fun i _ -> i < cache_cap - 1) !cache else !cache);
      p

let raise_trap = function
  | Unknown_global g ->
      invalid_arg (Printf.sprintf "Machine.Exec.global_addr: no global %s" g)
  | Unknown_func_ref fn ->
      raise
        (Memory.Fault
           (Memory.Misc (Printf.sprintf "unknown function reference %s" fn)))
  | Unknown_callee c ->
      raise
        (Memory.Fault
           (Memory.Misc (Printf.sprintf "call to unknown function %s" c)))
  | Missing_label -> raise Not_found
  | Bad_register -> invalid_arg "index out of bounds"

(* Register frames: one [Bytes.t] of [nregs] native-endian 64-bit
   slots per call, read and written without boxing or bounds checks.
   Compile turns every register outside the function's count into a
   trap or the frame's spare slot, so accesses stay inside the frame. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get regs = function
  | Sreg r -> get64u regs (r lsl 3)
  | Simm i -> i
  | Strap t -> raise_trap t

let[@inline] set regs r (v : int64) = set64u regs (r lsl 3) v

let[@inline] charge cyc c =
  Float.Array.unsafe_set cyc 0 (Float.Array.unsafe_get cyc 0 +. c)

let div_by_zero () = raise (Memory.Fault (Memory.Misc "division by zero"))

(* Int64.unsigned_compare and unsigned_div, restated so that the
   operands stay unboxed in the dispatch arm (a call into Int64 would
   box them). *)
let[@inline] ult (a : int64) b =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] udiv (n : int64) d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if ult r d then q else Int64.add q 1L

(* The callee's frame, with its parameters filled from the caller's
   operands.  Arguments are evaluated left to right, so a trapping one
   raises before any call bookkeeping, as in the reference; surplus
   arguments are evaluated and dropped (the arity fault follows in
   [call_fn]). *)
let frame_for (bf : bfunc) regs args =
  let frame = Bytes.make (bf.nregs lsl 3) '\000' in
  let params = bf.param_regs in
  let nparams = Array.length params in
  for i = 0 to Array.length args - 1 do
    let v = get regs (Array.unsafe_get args i) in
    if i < nparams then set frame (Array.unsafe_get params i) v
  done;
  frame

let run ?(fuel = 200_000_000) ?(entry = "main") ?(args = []) (st : Exec.state) =
  st.fuel <- fuel;
  let prog = compiled_for st in
  (* Intrinsic closures are linked lazily per run: registration happens
     after prepare (and in principle during execution), and an
     unregistered intrinsic must only fault when it executes. *)
  let impls : Exec.intrinsic option array =
    Array.make (Array.length prog.intrinsic_names) None
  in
  let funcs = prog.funcs in
  let nfuncs = Array.length funcs in
  let cur = ref entry in
  let cyc = Float.Array.make 1 st.cycles in
  let flush () = st.cycles <- Float.Array.unsafe_get cyc 0 in
  let resync () = Float.Array.unsafe_set cyc 0 st.cycles in
  (* trace hooks are arbitrary closures that may inspect the state, so
     they see an up-to-date [st.cycles] just like under the reference *)
  let emit_sync emit ev =
    flush ();
    match emit ev with
    | () -> resync ()
    | exception e ->
        resync ();
        raise e
  in
  (* Runs [bf] on [regs], a frame from [frame_for] built from [nargs]
     arguments.  [Oret] writes the result straight into the caller's
     slot [ret_dst] of [ret] ([ret_dst] < 0: the result is dropped). *)
  let rec call_fn (bf : bfunc) regs nargs ret ret_dst =
    st.call_count <- st.call_count + 1;
    st.depth <- st.depth + 1;
    if st.depth > st.max_depth then st.max_depth <- st.depth;
    charge cyc Cost.call_overhead;
    let caller = !cur in
    cur := bf.fname;
    (match st.on_event with
    | Some emit ->
        emit_sync emit
          (Exec.Ev_call { func = bf.fname; depth = st.depth; sp = st.sp })
    | None -> ());
    let entry_sp = st.sp in
    let nparams = Array.length bf.param_regs in
    if nargs <> nparams then
      raise
        (Memory.Fault
           (Memory.Misc
              (Printf.sprintf "call to %s with %d args, expected %d" bf.fname
                 nargs nparams)));
    let code = bf.code in
    let getv args = Array.map (fun s -> get regs s) args in
    (* Operand values are let-bound before use: ocamlopt then keeps
       them unboxed, and the arithmetic arms allocate nothing. *)
    let rec step pc =
      match Array.unsafe_get code pc with
      | Obinop { dst; cost; op; lhs; rhs } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc cost;
          (* reference operand order: rhs, then lhs *)
          let b = get regs rhs in
          let a = get regs lhs in
          let r =
            match op with
            | Add -> Int64.add a b
            | Sub -> Int64.sub a b
            | Mul -> Int64.mul a b
            | Sdiv -> if b = 0L then div_by_zero () else Int64.div a b
            | Udiv -> if b = 0L then div_by_zero () else udiv a b
            | Srem -> if b = 0L then div_by_zero () else Int64.rem a b
            | Urem ->
                if b = 0L then div_by_zero ()
                else Int64.sub a (Int64.mul (udiv a b) b)
            | And -> Int64.logand a b
            | Or -> Int64.logor a b
            | Xor -> Int64.logxor a b
            | Shl -> Int64.shift_left a (Int64.to_int b land 63)
            | Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
            | Ashr -> Int64.shift_right a (Int64.to_int b land 63)
          in
          set regs dst r;
          step (pc + 1)
      | Oicmp { dst; op; lhs; rhs } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.alu;
          let b = get regs rhs in
          let a = get regs lhs in
          let r =
            match op with
            | Eq -> a = b
            | Ne -> a <> b
            | Slt -> a < b
            | Sle -> a <= b
            | Sgt -> a > b
            | Sge -> a >= b
            | Ult -> ult a b
            | Ule -> not (ult b a)
          in
          set regs dst (if r then 1L else 0L);
          step (pc + 1)
      | Oselect { dst; cond; if_true; if_false } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.alu;
          (* the non-taken arm is never evaluated, as in the reference *)
          let c = get regs cond in
          let v = if c = 0L then get regs if_false else get regs if_true in
          set regs dst v;
          step (pc + 1)
      | Osext { dst; width; value } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.alu;
          let v = get regs value in
          let r =
            match width with
            | 1 -> Int64.shift_right (Int64.shift_left v 56) 56
            | 2 -> Int64.shift_right (Int64.shift_left v 48) 48
            | 4 -> Int64.shift_right (Int64.shift_left v 32) 32
            | 8 -> v
            (* any other width: Bytecodec's bad-width error *)
            | width -> Sutil.Bytecodec.sext ~width 0L
          in
          set regs dst r;
          step (pc + 1)
      | Otrunc { dst; width; value } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.alu;
          let v = get regs value in
          let r =
            match width with
            | 1 -> Int64.logand v 0xffL
            | 2 -> Int64.logand v 0xffffL
            | 4 -> Int64.logand v 0xffffffffL
            | 8 -> v
            | width -> Sutil.Bytecodec.zext ~width 0L
          in
          set regs dst r;
          step (pc + 1)
      | Ogep { dst; base; offset; index; scale } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.alu;
          let i = get regs index in
          let idx = Int64.mul i (Int64.of_int scale) in
          let b = get regs base in
          set regs dst (Int64.add (Int64.add b (Int64.of_int offset)) idx);
          step (pc + 1)
      | Oload { dst; width; addr } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          let av = get regs addr in
          let a = Int64.to_int av in
          charge cyc
            (if a >= Exec.rodata_base && a < Exec.data_base then
               Cost.load_rodata
             else Cost.load);
          Memory.load_into st.mem ~width a regs (dst lsl 3);
          step (pc + 1)
      | Ostore { width; value; addr } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.store;
          (* reference operand order: value, then addr; a register value
             cannot trap, so its slot is read by the store itself *)
          (match value with
          | Sreg r ->
              let av = get regs addr in
              Memory.store_from st.mem ~width (Int64.to_int av) regs (r lsl 3)
          | Simm v ->
              let av = get regs addr in
              Memory.store st.mem ~width (Int64.to_int av) v
          | Strap t -> raise_trap t);
          step (pc + 1)
      | Oalloca { dst; elt; align; count } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          let n =
            match count with
            | None -> 1
            | Some c ->
                let v = get regs c in
                if v < 0L || v > 0x10000000L then
                  raise (Memory.Fault (Memory.Misc "VLA length out of range"))
                else Int64.to_int v
          in
          let bytes = elt * n in
          let new_sp = Sutil.Align.align_down (st.sp - bytes) ~alignment:align in
          if new_sp < st.stack_limit then
            raise
              (Memory.Fault (Memory.Stack_overflow { sp = st.sp; need = bytes }));
          st.sp <- new_sp;
          if entry_sp - new_sp > st.max_frame_bytes then
            st.max_frame_bytes <- entry_sp - new_sp;
          charge cyc Cost.alloca;
          set regs dst (Int64.of_int new_sp);
          step (pc + 1)
      | Ocall { dst; fidx; args } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          let bf = Array.unsafe_get funcs fidx in
          call_fn bf (frame_for bf regs args) (Array.length args) regs dst;
          step (pc + 1)
      | Obuiltin { dst; name; args } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          let argv = getv args in
          flush ();
          let r =
            match Exec.run_builtin st name argv with
            | r ->
                resync ();
                r
            | exception e ->
                resync ();
                raise e
          in
          if dst >= 0 then
            set regs dst (match r with Some v -> v | None -> 0L);
          step (pc + 1)
      | Ocall_unknown { name; args } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          ignore (getv args);
          raise
            (Memory.Fault
               (Memory.Misc (Printf.sprintf "call to unknown function %s" name)))
      | Ocall_ind { dst; callee; args } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          let tv = get regs callee in
          let target = Int64.to_int tv in
          let rel = target - Compile.token_base in
          if rel >= 0 && rel land 15 = 0 && rel asr 4 < nfuncs then begin
            let bf = Array.unsafe_get funcs (rel asr 4) in
            call_fn bf (frame_for bf regs args) (Array.length args) regs dst;
            step (pc + 1)
          end
          else
            raise
              (Memory.Fault
                 (Memory.Misc
                    (Printf.sprintf "indirect call to non-function address 0x%x"
                       target)))
      | Ointrinsic { dst; slot; name; args } ->
          st.instr_count <- st.instr_count + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then raise Exec.Out_of_fuel;
          charge cyc Cost.intrinsic_base;
          let fn =
            match Array.unsafe_get impls slot with
            | Some fn -> fn
            | None -> (
                match Hashtbl.find_opt st.intrinsics name with
                | Some fn ->
                    impls.(slot) <- Some fn;
                    fn
                | None ->
                    raise
                      (Memory.Fault
                         (Memory.Misc
                            (Printf.sprintf "unregistered intrinsic %s" name))))
          in
          let argv = getv args in
          flush ();
          let result =
            match fn st argv with
            | r ->
                resync ();
                r
            | exception e ->
                resync ();
                raise e
          in
          (match st.on_event with
          | Some emit -> emit_sync emit (Exec.Ev_intrinsic { name; result })
          | None -> ());
          if dst >= 0 then
            set regs dst (match result with Some v -> v | None -> 0L);
          step (pc + 1)
      | Ojmp t ->
          charge cyc Cost.branch;
          step t
      | Ocondbr { cond; if_true; if_false } ->
          charge cyc Cost.cond_branch;
          let c = get regs cond in
          step (if c = 0L then if_false else if_true)
      | Oret v ->
          charge cyc Cost.branch;
          let x = get regs v in
          if ret_dst >= 0 then set ret ret_dst x
      | Ounreachable fname ->
          raise
            (Memory.Fault (Memory.Misc ("unreachable executed in " ^ fname)))
      | Otrap -> raise Not_found
      | Obad_reg -> invalid_arg "index out of bounds"
    in
    match step 0 with
    | () ->
        st.sp <- entry_sp;
        st.depth <- st.depth - 1;
        (match st.on_event with
        | Some emit ->
            emit_sync emit (Exec.Ev_return { func = bf.fname; depth = st.depth })
        | None -> ());
        cur := caller
    | exception e ->
        (* unwind bookkeeping but propagate, as the reference does *)
        st.depth <- st.depth - 1;
        raise e
  in
  let outcome =
    match Hashtbl.find_opt prog.index entry with
    | None ->
        Exec.Fault { fault = Memory.Misc ("no entry function " ^ entry); func = "-" }
    | Some fidx -> (
        let bf = funcs.(fidx) in
        (* entry arguments are immediates; the result lands in [ret] *)
        let argv = Array.of_list (List.map (fun v -> Simm v) args) in
        let frame = frame_for bf Bytes.empty argv in
        let ret = Bytes.make 8 '\000' in
        match call_fn bf frame (Array.length argv) ret 0 with
        | () ->
            flush ();
            Exec.Exit (get64u ret 0)
        | exception Exec.Exit_program code ->
            flush ();
            Exec.Exit code
        | exception Memory.Fault fault ->
            flush ();
            (match st.on_event with
            | Some emit ->
                emit (Exec.Ev_fault { detail = Memory.fault_to_string fault })
            | None -> ());
            Exec.Fault { fault; func = !cur }
        | exception Exec.Detect reason ->
            flush ();
            (match st.on_event with
            | Some emit -> emit (Exec.Ev_detected { reason })
            | None -> ());
            Exec.Detected { reason; func = !cur }
        | exception Exec.Out_of_fuel ->
            flush ();
            Exec.Fuel_exhausted)
  in
  (outcome, Exec.stats_of_state st)
