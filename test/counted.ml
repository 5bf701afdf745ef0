(* [run f] runs [f count] under a fresh [Obs] sink, where [count name]
   reads counter [name] from that sink: a case sees only the events of
   its own run. *)

let run f =
  let sk = Obs.sink () in
  let count name =
    Option.value ~default:0 (List.assoc_opt name (Obs.sink_snapshot sk).Obs.counters)
  in
  Obs.with_sink sk (fun () -> f count)
