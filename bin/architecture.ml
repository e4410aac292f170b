(* Print the paper's architecture figures (2-1 .. 2-4), regenerated from the
   implementation's module structure.

   Usage: dune exec bin/architecture.exe            (all figures)
          dune exec bin/architecture.exe -- fig2-2  (one figure) *)

let figures =
  [
    ("fig2-1", Ntcs.Figures.fig_2_1);
    ("fig2-2", Ntcs.Figures.fig_2_2);
    ("fig2-3", Ntcs.Figures.fig_2_3);
    ("fig2-4", Ntcs.Figures.fig_2_4);
  ]

let inventory () =
  print_string
    {|
Module inventory (DESIGN.md section 3):

  lib/util   ntcs_util   rng, lru, bounded queues, pools, stats
  lib/sim    ntcs_sim    deterministic scheduler, machines, networks, traces
  lib/ipcs   ntcs_ipcs   physical addresses; simulated Unix TCP and Apollo MBX
  lib/wire   ntcs_wire   image / packed / shift conversion modes (paper section 5)
  lib/core   ntcs        the NTCS: ND / IP+Gateway / LCM / NSP / ALI layers,
                         UAdds+TAdds, Name Server, router, cluster builder
  lib/drts   ntcs_drts   process control, time service, monitor, error log
  lib/ursa   ursa        the URSA retrieval application (index/search/docs)
|}

let () =
  match Array.to_list Sys.argv with
  | _ :: names when names <> [] ->
    List.iter
      (fun name ->
        match List.assoc_opt name figures with
        | Some f -> f ()
        | None when name = "inventory" -> inventory ()
        | None ->
          Printf.printf "unknown figure %S; known: %s inventory\n" name
            (String.concat " " (List.map fst figures)))
      names
  | _ ->
    List.iter (fun (_, f) -> f ()) figures;
    inventory ()
