type t = {
  view_name : string;
  definition : Qt_sql.Ast.t;
  rows : int;
  row_bytes : int;
}

let make ?(row_bytes = 50) ~name ~definition ~rows () =
  if rows < 0 then invalid_arg "View.make: negative rows";
  { view_name = name; definition; rows; row_bytes }
