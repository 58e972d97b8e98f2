type t = {
  cold : Store.Campaign.report;
  cold_stats : Store.Cache.stats;
  warm : Store.Campaign.report;
  warm_stats : Store.Cache.stats;
}

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run ?(pool = Sched.Pool.sequential) () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smokestack-e16-store-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  let store = Store.Cache.open_disk dir in
  let config =
    Store.Campaign.config ~seed:1000L ~count:200
      ~engine:(Machine.Backend.default ()).Machine.Backend.kind ()
  in
  let cold = Store.Campaign.run ~pool ~store config in
  let cold_stats = Store.Cache.stats store in
  Store.Cache.reset_stats store;
  let warm = Store.Campaign.run ~pool ~store config in
  let warm_stats = Store.Cache.stats store in
  rm_rf dir;
  { cold; cold_stats; warm; warm_stats }

let digests_identical t =
  String.equal t.cold.Store.Campaign.digest t.warm.Store.Campaign.digest

let phases t =
  List.map
    (fun (phase, (s : Store.Cache.stats), (r : Store.Campaign.report)) ->
      [
        phase;
        string_of_int s.hits;
        string_of_int s.misses;
        string_of_int s.writes;
        r.Store.Campaign.digest;
      ])
    [ ("cold", t.cold_stats, t.cold); ("warm", t.warm_stats, t.warm) ]

let stats_table t =
  let open Sutil.Texttable in
  let tbl =
    create
      ~columns:
        [
          ("phase", Left);
          ("hits", Right);
          ("misses", Right);
          ("writes", Right);
          ("digest", Left);
        ]
  in
  List.iter (add_row tbl) (phases t);
  tbl

let to_markdown t =
  Printf.sprintf "```\n%s```\n\n"
    (Sutil.Texttable.render (Store.Campaign.report_table t.cold))
  ^ "| phase | hits | misses | writes | digest |\n|---|---|---|---|---|\n"
  ^ String.concat ""
      (List.map (fun row -> "| " ^ String.concat " | " row ^ " |\n") (phases t))
  ^ Printf.sprintf "\ndigests identical: %b\n" (digests_identical t)
