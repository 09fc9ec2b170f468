type id = int

type fault_kind = Missing | Protection | Cow_write
type access = Read | Write

type fault = {
  f_seg : Epcm_segment.id;
  f_page : int;
  f_access : access;
  f_kind : fault_kind;
  f_space : Epcm_segment.id;
}

type mode = [ `In_process | `Separate_process ]

type t = {
  mid : id;
  mname : string;
  mmode : mode;
  on_fault : fault -> unit;
  on_close : Epcm_segment.id -> unit;
  on_pressure : pages:int -> int;
}

let access_to_string = function Read -> "read" | Write -> "write"

let kind_to_string = function
  | Missing -> "missing"
  | Protection -> "protection"
  | Cow_write -> "cow-write"

let pp_fault ppf f =
  Format.fprintf ppf "%s %s fault at seg %d page %d (via seg %d)" (kind_to_string f.f_kind)
    (access_to_string f.f_access) f.f_seg f.f_page f.f_space

let charge_fault_logic machine =
  Hw_machine.charge ~label:"mgr/fault_logic" machine
    machine.Hw_machine.cost.Hw_cost.manager_fault_logic
