module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Fragment = Qt_catalog.Fragment
module Node = Qt_catalog.Node
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx

type t = {
  query : Ast.t;
  base : (string * Fragment.t) list;
  base_rows : (string * float) list;
}

let retained_aliases t = List.map fst t.base

(* Key range the query itself demands for an alias (full when the relation
   is unpartitioned or the query does not restrict the key). *)
let required_range schema (q : Ast.t) alias =
  match Analysis.relation_of_alias q alias with
  | None -> Interval.full
  | Some rel_name -> (
    match Schema.find_relation schema rel_name with
    | None -> Interval.full
    | Some rel -> (
      match rel.partition_key with
      | None -> Interval.full
      | Some key ->
        (* A restriction anywhere along the key's equi-join chain bounds
           this alias too (e.g. [c.custid BETWEEN .. AND c.custid =
           il.custid] bounds il). *)
        Interval.inter (Schema.key_range rel)
          (Analysis.range_of_closure q { Ast.rel = alias; name = key })))

type ranges = (string * Interval.t) list

(* [required_range] of every alias.  The aliases whose keys are equi-joined
   share one closure, whose range is computed once: interval intersection
   is exact and does not depend on order, so each alias gets the very
   interval [required_range] gives. *)
let required_ranges schema (q : Ast.t) =
  let classes = ref [] in
  let closure_range attr =
    match
      List.find_opt (fun (members, _) -> List.exists (Ast.equal_attr attr) members) !classes
    with
    | Some (_, range) -> range
    | None ->
      let members = Analysis.equiv_attrs q attr in
      let range =
        List.fold_left
          (fun acc a -> Interval.inter acc (Analysis.range_of q a))
          Interval.full members
      in
      classes := (members, range) :: !classes;
      range
  in
  List.map
    (fun alias ->
      let range =
        match Analysis.relation_of_alias q alias with
        | None -> Interval.full
        | Some rel_name -> (
          match Schema.find_relation schema rel_name with
          | None -> Interval.full
          | Some rel -> (
            match rel.partition_key with
            | None -> Interval.full
            | Some key ->
              Interval.inter (Schema.key_range rel)
                (closure_range { Ast.rel = alias; name = key })))
      in
      (alias, range))
    (Analysis.aliases q)

(* An alias outside the query has no relation, so [required_range] is
   full for it too. *)
let range_of (ranges : ranges) alias =
  match List.assoc_opt alias ranges with Some r -> r | None -> Interval.full

let partition_attr schema (q : Ast.t) alias =
  Option.bind (Analysis.relation_of_alias q alias) (fun rel_name ->
      Option.bind (Schema.find_relation schema rel_name) (fun rel ->
          Option.map (fun key -> { Ast.rel = alias; name = key }) rel.partition_key))

let localize ?(max_variants = 16) ~ranges schema node (q : Ast.t) =
  let candidates_for alias =
    match Analysis.relation_of_alias q alias with
    | None -> []
    | Some rel_name ->
      let required = range_of ranges alias in
      if Interval.is_empty required then []
      else
        List.filter_map
          (fun (f : Fragment.t) ->
            let overlap = Interval.inter f.range required in
            if Interval.is_empty overlap then None
            else Some (f, overlap, float_of_int (Fragment.restrict_rows f overlap)))
          (Node.fragments_of node rel_name)
  in
  let per_alias =
    List.filter_map
      (fun alias ->
        match candidates_for alias with
        | [] -> None
        | cands -> Some (alias, cands))
      (Analysis.aliases q)
  in
  if per_alias = [] then []
  else begin
    let kept = List.map fst per_alias in
    let shape =
      if List.length kept = List.length (Analysis.aliases q) then q
      else Analysis.restrict q kept
    in
    let combos = Listx.cartesian (List.map snd per_alias) in
    let variants =
      List.map
        (fun choice ->
          let base = List.combine kept (List.map (fun (f, _, _) -> f) choice) in
          let base_rows =
            List.combine kept (List.map (fun (_, _, rows) -> rows) choice)
          in
          let query =
            List.fold_left2
              (fun acc alias (_, overlap, _) ->
                match partition_attr schema q alias with
                | None -> acc
                | Some attr -> Analysis.add_range acc attr overlap)
              shape kept choice
          in
          { query; base; base_rows })
        combos
    in
    let score v =
      (* More rows available = more complete offer; alias count is constant
         across variants of one node, so rows decide the order. *)
      -.Listx.sum_by snd v.base_rows
    in
    let ranked = List.sort (fun a b -> Float.compare (score a) (score b)) variants in
    Listx.take max_variants ranked
  end
