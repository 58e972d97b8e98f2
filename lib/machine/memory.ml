type perm = Read_only | Read_write

type fault =
  | Out_of_bounds of { addr : int; size : int; op : string }
  | Write_protected of { addr : int }
  | Null_dereference
  | Stack_overflow of { sp : int; need : int }
  | Misc of string

exception Fault of fault

let pp_fault fmt = function
  | Out_of_bounds { addr; size; op } ->
      Format.fprintf fmt "out-of-bounds %s of %d byte(s) at 0x%x" op size addr
  | Write_protected { addr } ->
      Format.fprintf fmt "write to read-only memory at 0x%x" addr
  | Null_dereference -> Format.pp_print_string fmt "null dereference"
  | Stack_overflow { sp; need } ->
      Format.fprintf fmt "stack overflow: sp=0x%x, need %d more bytes" sp need
  | Misc m -> Format.pp_print_string fmt m

let fault_to_string f = Format.asprintf "%a" pp_fault f

let page_size = 4096

type segment = {
  name : string;
  base : int;
  bytes : Bytes.t;
  perm : perm;
  touched : Bytes.t;
}

type t = {
  segs : segment array;  (* sorted by base; disjoint *)
  mutable last : int;  (* index of the last segment hit, for locality *)
  mutable on_access : (unit -> unit) option;
      (* fault-injection hook, fired before every checked access *)
}

let create specs =
  let segs =
    List.map
      (fun (name, base, size, perm) ->
        if base <= 0 || size <= 0 then
          invalid_arg "Machine.Memory.create: segments must have positive base and size";
        {
          name;
          base;
          bytes = Bytes.make size '\000';
          perm;
          touched = Bytes.make (((size + page_size - 1) / page_size)) '\000';
        })
      specs
    |> List.sort (fun a b -> compare a.base b.base)
    |> Array.of_list
  in
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        let prev = segs.(i - 1) in
        if prev.base + Bytes.length prev.bytes > s.base then
          invalid_arg
            (Printf.sprintf "Machine.Memory.create: segments %s and %s overlap"
               prev.name s.name)
      end)
    segs;
  { segs; last = 0; on_access = None }

let segments t = Array.to_list t.segs

let segment t name =
  match Array.find_opt (fun s -> String.equal s.name name) t.segs with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Machine.Memory.segment: no segment %s" name)

let find t addr =
  Array.find_opt
    (fun s -> addr >= s.base && addr < s.base + Bytes.length s.bytes)
    t.segs

(* Slow path of [locate]: a linear scan that refreshes the cache.  It
   is a top-level function rather than a local closure so that a cache
   miss allocates nothing.  Segments are disjoint, so containment of
   [addr] identifies the unique candidate; an access that starts inside
   a segment but overruns it is out of bounds. *)
let rec scan t i ~op addr size =
  let segs = t.segs in
  if i >= Array.length segs then raise (Fault (Out_of_bounds { addr; size; op }))
  else
    let s = Array.unsafe_get segs i in
    if addr >= s.base && addr + size <= s.base + Bytes.length s.bytes then begin
      t.last <- i;
      s
    end
    else scan t (i + 1) ~op addr size

(* Hot path for every load/store, inlined into each accessor: no
   closures, no [option] allocation, and a one-element cache of the
   last segment hit (accesses cluster on the stack or one data segment,
   so the cache almost always hits and skips the linear scan). *)
let[@inline] locate t ~op addr size =
  (match t.on_access with Some f -> f () | None -> ());
  if addr = 0 then raise (Fault Null_dereference);
  let s = Array.unsafe_get t.segs t.last in
  if addr >= s.base && addr + size <= s.base + Bytes.length s.bytes then s
  else scan t 0 ~op addr size

let[@inline] touch s off size =
  let first = off / page_size and last = (off + size - 1) / page_size in
  for p = first to last do
    Bytes.unsafe_set s.touched p '\001'
  done

let load t ~width addr =
  let s = locate t ~op:"load" addr width in
  let off = addr - s.base in
  touch s off width;
  Sutil.Bytecodec.get s.bytes ~width off

let load_unchecked = load

let store t ~width addr v =
  let s = locate t ~op:"store" addr width in
  if s.perm = Read_only then raise (Fault (Write_protected { addr }));
  let off = addr - s.base in
  touch s off width;
  Sutil.Bytecodec.set s.bytes ~width off v

(* Frame-slot accessors.  A frame is a [Bytes.t] of native-endian
   64-bit slots owned by the bytecode engine; memory is little-endian.
   Every width has its own arm, so no [int64] is boxed between the
   segment bytes and the frame.  The checks run in {!load}/{!store}'s
   order, and an unsupported width fails after them with
   {!Sutil.Bytecodec}'s message, as {!load}/{!store} do. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] le16 v = if Sys.big_endian then bswap16 v else v
let[@inline] le32 v = if Sys.big_endian then bswap32 v else v
let[@inline] le64 v = if Sys.big_endian then bswap64 v else v

let load_into t ~width addr frame slot =
  let s = locate t ~op:"load" addr width in
  let off = addr - s.base in
  touch s off width;
  let b = s.bytes in
  match width with
  | 1 -> set64u frame slot (Int64.of_int (Char.code (Bytes.unsafe_get b off)))
  | 2 -> set64u frame slot (Int64.of_int (le16 (get16u b off)))
  | 4 ->
      set64u frame slot
        (Int64.of_int (Int32.to_int (le32 (get32u b off)) land 0xffffffff))
  | 8 -> set64u frame slot (le64 (get64u b off))
  | _ -> invalid_arg (Printf.sprintf "Sutil.Bytecodec.get: bad width %d" width)

let store_from t ~width addr frame slot =
  let s = locate t ~op:"store" addr width in
  if s.perm = Read_only then raise (Fault (Write_protected { addr }));
  let off = addr - s.base in
  touch s off width;
  let b = s.bytes in
  match width with
  | 1 ->
      Bytes.unsafe_set b off
        (Char.unsafe_chr (Int64.to_int (get64u frame slot) land 0xff))
  | 2 -> set16u b off (le16 (Int64.to_int (get64u frame slot) land 0xffff))
  | 4 -> set32u b off (le32 (Int64.to_int32 (get64u frame slot)))
  | 8 -> set64u b off (le64 (get64u frame slot))
  | _ -> invalid_arg (Printf.sprintf "Sutil.Bytecodec.set: bad width %d" width)

let read_bytes t addr n =
  if n = 0 then ""
  else begin
    let s = locate t ~op:"read" addr n in
    let off = addr - s.base in
    touch s off n;
    Bytes.sub_string s.bytes off n
  end

let write_bytes_perm ~check t addr str =
  let n = String.length str in
  if n > 0 then begin
    let s = locate t ~op:"write" addr n in
    if check && s.perm = Read_only then raise (Fault (Write_protected { addr }));
    let off = addr - s.base in
    touch s off n;
    Bytes.blit_string str 0 s.bytes off n
  end

let write_bytes t addr str = write_bytes_perm ~check:true t addr str
let write_protected t addr str = write_bytes_perm ~check:false t addr str

let cstring t ?(max = 1 lsl 20) addr =
  let buf = Buffer.create 32 in
  let rec go a =
    if Buffer.length buf >= max then
      raise (Fault (Misc (Printf.sprintf "unterminated string at 0x%x" addr)))
    else
      let c = Int64.to_int (load t ~width:1 a) in
      if c <> 0 then begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
  in
  go addr;
  Buffer.contents buf

let set_access_hook t hook = t.on_access <- hook

let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 7 then
    invalid_arg "Machine.Memory.flip_bit: bit must be in [0, 7]";
  match find t addr with
  | None ->
      invalid_arg
        (Printf.sprintf "Machine.Memory.flip_bit: address 0x%x is unmapped"
           addr)
  | Some s ->
      let off = addr - s.base in
      Bytes.unsafe_set s.bytes off
        (Char.chr (Char.code (Bytes.unsafe_get s.bytes off) lxor (1 lsl bit)))

let touched_bytes t =
  Array.fold_left
    (fun acc s ->
      let pages = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr pages) s.touched;
      acc + (!pages * page_size))
    0 t.segs
