module J = Sutil.Json

let format_version = 1

type backend =
  | Memory of (string, Key.t * Entry.t) Hashtbl.t
  | Disk of { dir : string }

type t = {
  backend : backend;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable evicted : int;
}

exception Incompatible of string

type stats = { hits : int; misses : int; writes : int; evicted : int }

let manifest_name = "manifest.json"
let manifest_field = "smokestack-store"

let ( / ) = Filename.concat

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())
    end
    else if not (Sys.is_directory d) then
      raise (Sys_error (d ^ ": not a directory"))
  in
  go dir

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Unique temp-file suffix: pid disambiguates processes, the atomic
   counter disambiguates domains within one process. *)
let tmp_counter = Atomic.make 0

let write_atomic ~dir ~tmp_dir ~name json =
  let tmp =
    tmp_dir
    / Printf.sprintf "%d.%d.tmp" (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  Out_channel.with_open_bin tmp (fun oc -> J.doc_to_channel oc json);
  Sys.rename tmp (dir / name)

let mk backend =
  { backend; mutex = Mutex.create (); hits = 0; misses = 0; writes = 0; evicted = 0 }

let in_memory () = mk (Memory (Hashtbl.create 64))

let validate_manifest dir =
  let path = dir / manifest_name in
  if Sys.file_exists path then begin
    let doc =
      match J.of_string (read_file path) with
      | Ok j -> j
      | Error e ->
          raise
            (Incompatible
               (Printf.sprintf
                  "%s: unreadable store manifest (%s); move the directory \
                   aside or delete it to start a fresh store"
                  path e))
    in
    match Option.bind (J.member manifest_field doc) J.to_int_opt with
    | Some v when v = format_version -> ()
    | Some v ->
        raise
          (Incompatible
             (Printf.sprintf
                "%s: store format version %d, this binary writes version %d; \
                 rebuild the store in a fresh directory"
                path v format_version))
    | None ->
        raise
          (Incompatible
             (Printf.sprintf
                "%s: not a smokestack store manifest; move the directory \
                 aside or delete it to start a fresh store"
                path))
  end
  else if Sys.readdir dir <> [||] then
    raise
      (Incompatible
         (Printf.sprintf
            "%s: directory exists, is not empty, and has no %s — refusing to \
             adopt it as a store"
            dir manifest_name))
  else
    write_atomic ~dir ~tmp_dir:dir ~name:manifest_name
      (J.Obj [ (manifest_field, J.Int format_version) ])

let open_disk dir =
  mkdir_p dir;
  validate_manifest dir;
  mkdir_p (dir / "objects");
  mkdir_p (dir / "tmp");
  mkdir_p (dir / "quarantine");
  mk (Disk { dir })

let root t = match t.backend with Memory _ -> None | Disk { dir } -> Some dir

let entry_path dir id = dir / "objects" / String.sub id 0 2 / (id ^ ".json")

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let quarantine t dir id path =
  (* Move the corrupt file aside so the slot reads as a plain miss from
     now on; races with a concurrent quarantine/overwrite are benign. *)
  let dst =
    dir / "quarantine"
    / Printf.sprintf "%s.%d.%d" id (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
  in
  (try Sys.rename path dst with Sys_error _ -> ());
  locked t (fun () -> t.evicted <- t.evicted + 1)

let hit t = locked t (fun () -> t.hits <- t.hits + 1)
let miss t = locked t (fun () -> t.misses <- t.misses + 1)

let find t key =
  let id = Key.id key in
  match t.backend with
  | Memory tbl -> (
      match locked t (fun () -> Hashtbl.find_opt tbl id) with
      | Some (k, e) when Key.equal k key ->
          hit t;
          Some e
      | _ ->
          miss t;
          None)
  | Disk { dir } -> (
      let path = entry_path dir id in
      if not (Sys.file_exists path) then begin
        miss t;
        None
      end
      else
        let parsed =
          match J.of_string (read_file path) with
          | Ok doc -> Entry.of_json doc
          | Error _ -> None
          | exception Sys_error _ -> None
        in
        match parsed with
        | Some (k, e) when Key.equal k key ->
            hit t;
            Some e
        | _ ->
            quarantine t dir id path;
            miss t;
            None)

let mem t key =
  let id = Key.id key in
  match t.backend with
  | Memory tbl -> locked t (fun () -> Hashtbl.mem tbl id)
  | Disk { dir } -> Sys.file_exists (entry_path dir id)

let put t key entry =
  let id = Key.id key in
  (match t.backend with
  | Memory tbl -> locked t (fun () -> Hashtbl.replace tbl id (key, entry))
  | Disk { dir } ->
      let shard = dir / "objects" / String.sub id 0 2 in
      mkdir_p shard;
      write_atomic ~dir:shard ~tmp_dir:(dir / "tmp") ~name:(id ^ ".json")
        (Entry.to_json ~key entry));
  locked t (fun () -> t.writes <- t.writes + 1)

let memo t key ~decode ~encode compute =
  match Option.bind (find t key) decode with
  | Some v -> v
  | None ->
      let v = compute () in
      put t key (encode v);
      v

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; writes = t.writes; evicted = t.evicted })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.writes <- 0;
      t.evicted <- 0)

let stats_to_json s =
  J.Obj
    [
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("writes", J.Int s.writes);
      ("evicted", J.Int s.evicted);
    ]
