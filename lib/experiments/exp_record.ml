(* A versioned record is defined once: its schema tag, its shape
   conditions and its checks, all written as predicates over the record's
   JSON body. [emit] evaluates them on the in-memory tree it is about to
   print; [derive] evaluates the very same predicates on a parsed file, so
   a record whose embedded "checks" array was edited to claim a pass is
   still rejected. *)

module J = Sim_json

type schema = {
  tag : string;
  shape : J.t -> unit;
  checks : J.t -> Exp_report.check list;
}

type t = { json : J.t; checks : Exp_report.check list }

exception Invalid of string

let fail msg = raise (Invalid msg)
let require cond msg = if not cond then fail msg
let missing what = fail ("missing or ill-typed " ^ what)

let field conv name json =
  match Option.bind (J.member name json) conv with Some v -> v | None -> missing name

let num = field J.to_float
let bool = field J.to_bool
let str = field J.to_str
let list = field J.to_list
let obj = field (function J.Obj _ as o -> Some o | _ -> None)

(* Counts are emitted as [Num (float_of_int n)], which round-trips
   exactly; a fractional value where a count belongs is ill-typed. *)
let int =
  field (fun j ->
      match J.to_float j with
      | Some v when Float.is_integer v -> Some (int_of_float v)
      | _ -> None)

let find what pred items = match List.find_opt pred items with Some x -> x | None -> missing what

let derive schema body =
  match
    schema.shape body;
    schema.checks body
  with
  | checks -> Ok checks
  | exception Invalid msg -> Error msg

let check_json (c : Exp_report.check) =
  J.Obj
    [
      ("what", J.Str c.Exp_report.what);
      ("pass", J.Bool c.Exp_report.pass);
      ("detail", J.Str c.Exp_report.detail);
    ]

let emit schema fields =
  let fields = ("schema", J.Str schema.tag) :: fields in
  match derive schema (J.Obj fields) with
  | Error msg -> invalid_arg (Printf.sprintf "%s record: %s" schema.tag msg)
  | Ok checks ->
      { json = J.Obj (fields @ [ ("checks", J.List (List.map check_json checks)) ]); checks }

let to_string t = J.to_string ~indent:true t.json ^ "\n"
