type t = {
  predicted : float;
  trials : int;
  measured : float;
  distinct_layouts : int;
}

let run () =
  let prog = Lazy.force Apps.Librelp.program in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  (* The exploit needs the guessed DISTANCE to match the drawn one (and
     to be physically reachable): different (allNames, keyPtr) pairs
     giving the same difference all work, so the right prediction is
     the collision probability of the distance distribution restricted
     to reachable distances. *)
  let sample_offsets fname idx n seed =
    let b = Option.get (Smokestack.Pbox.binding hardened.pbox fname) in
    let dyn = Option.get (Smokestack.Pbox.dyn_of hardened.pbox b) in
    let rng = Sutil.Simrng.create ~seed in
    Array.init n (fun _ ->
        (Smokestack.Runtime.dynamic_offsets_for_draw dyn
           (Sutil.Simrng.next_u64 rng)).(idx))
  in
  let n = 8192 in
  let callee = sample_offsets "relpTcpChkPeerName" 0 n 11L in
  let caller = sample_offsets "relpTcpLstnInit" 2 n 12L in
  (* slab gap from the binary, as the attacker computes it *)
  let rows =
    Attacks.Layout.chain hardened.prog
      [ "main"; "relpTcpLstnInit"; "relpTcpChkPeerName" ]
  in
  let slab_gap =
    Option.get
      (Attacks.Layout.distance rows
         ~from_:("relpTcpChkPeerName", "__ss_total")
         ~to_:("relpTcpLstnInit", "__ss_total"))
  in
  let reachable d = d > 4096 && d - 2047 <= 4095 in
  let dist_counts = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let d = slab_gap + caller.(i) - callee.(i) in
    if reachable d then
      Hashtbl.replace dist_counts d
        (1 + Option.value ~default:0 (Hashtbl.find_opt dist_counts d))
  done;
  let predicted =
    Hashtbl.fold
      (fun _ c acc ->
        let p = float_of_int c /. float_of_int n in
        acc +. (p *. p))
      dist_counts 0.
  in
  let applied =
    Defenses.Defense.apply ~seed:3L
      (Defenses.Defense.Smokestack Smokestack.Config.default)
      prog
  in
  let trials = 400 in
  let hits = ref 0 in
  for i = 0 to trials - 1 do
    match
      (Apps.Librelp.attack_static applied ~seed:(Int64.of_int (40_000 + i)))
        .verdict
    with
    | Attacks.Verdict.Success -> incr hits
    | _ -> ()
  done;
  let measured = float_of_int !hits /. float_of_int trials in
  let distinct_layouts =
    let b =
      Option.get (Smokestack.Pbox.binding hardened.pbox "relpTcpChkPeerName")
    in
    (Smokestack.Entropy_an.of_binding hardened.pbox b).distinct_layouts
  in
  { predicted; trials; measured; distinct_layouts }

let rows t =
  [
    ( "predicted per-attempt success (distance collision)",
      Printf.sprintf "%.4f" t.predicted );
    ( Printf.sprintf "measured per-attempt success (%d trials)" t.trials,
      Printf.sprintf "%.4f" t.measured );
    ("predicted expected attempts", Printf.sprintf "%.0f" (1. /. t.predicted));
    ( "measured full-frame distinct layouts (callee)",
      string_of_int t.distinct_layouts );
  ]

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:[ ("quantity", Sutil.Texttable.Left); ("value", Sutil.Texttable.Right) ]
  in
  List.iter (fun (q, v) -> Sutil.Texttable.add_row tbl [ q; v ]) (rows t);
  tbl

let to_markdown t =
  "| quantity | value |\n|---|---|\n"
  ^ String.concat "" (List.map (fun (q, v) -> Printf.sprintf "| %s | %s |\n" q v) (rows t))
