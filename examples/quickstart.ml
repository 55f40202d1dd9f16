(* Quickstart: optimize one SQL query over a small federation with the
   query-trading optimizer, execute the resulting distributed plan, and
   check it against a direct evaluation of the query.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A federation of 8 nodes holding two co-partitioned relations of the
     paper's telecom scenario, 4 partitions x 2 replicas. *)
  let federation =
    Qt_sim.Generator.telecom ~nodes:8
      ~placement:{ Qt_sim.Generator.partitions = 4; replicas = 2 }
      ()
  in
  (* Queries are plain SQL text. *)
  let sql =
    "SELECT c.office, SUM(il.charge) FROM customer c, invoiceline il \
     WHERE c.custid = il.custid AND c.custid BETWEEN 0 AND 1999 \
     GROUP BY c.office"
  in
  let query = Qt_sql.Parser.parse sql in
  Printf.printf "Query: %s\n\n" (Qt_sql.Analysis.to_string query);
  (* Trade! *)
  let params = Qt_cost.Params.default in
  let config = Qt_core.Trader.default_config params in
  match Qt_core.Trader.optimize config federation query with
  | Error e -> failwith e
  | Ok outcome ->
    List.iter print_endline (outcome.trace ());
    Printf.printf "\nChosen plan (estimated %s):\n%s\n"
      (Format.asprintf "%a" Qt_cost.Cost.pp outcome.cost)
      (Format.asprintf "%a" Qt_optimizer.Plan.pp outcome.plan);
    Printf.printf "Optimization: %d iterations, %d messages, %.1f KiB, %.4gs simulated\n\n"
      outcome.stats.iterations outcome.stats.messages
      (float_of_int outcome.stats.bytes /. 1024.)
      outcome.stats.sim_time;
    (* Execute the plan against synthetic data and compare with a direct
       evaluation of the query over the global database. *)
    let store = Qt_exec.Store.generate ~seed:1 federation in
    let plan_result = Qt_exec.Engine.run store federation outcome.plan in
    let oracle = Qt_exec.Naive.run_global store query in
    Printf.printf "Plan result (%d rows):\n" (Qt_exec.Table.cardinality plan_result);
    Format.printf "%a@." (Qt_exec.Table.pp ~max_rows:10) plan_result;
    let sorted_plan = Qt_exec.Table.sort_rows plan_result in
    let sorted_oracle = Qt_exec.Table.sort_rows oracle in
    let agree =
      Qt_exec.Table.cardinality sorted_plan = Qt_exec.Table.cardinality sorted_oracle
      && List.for_all2
           (fun r1 r2 ->
             Array.for_all2 (fun a b -> Qt_exec.Value.equal a b) r1 r2)
           sorted_plan.Qt_exec.Table.rows sorted_oracle.Qt_exec.Table.rows
    in
    Printf.printf "Matches direct evaluation: %b\n" agree;
    if not agree then exit 1
