module Reg = Mssp_isa.Reg

(* [mask] has bit [i] set when register index [i] is bound and bit
   [pc_bit] when [Pc] is. [regs] is never written once a live-in holds
   it: [add] copies before binding a register, so any number of
   live-ins (a checkpoint, its refinement, a corrupted copy) may share
   one array. [mem] holds memory cells only; [lo > hi] when it is
   empty. *)
type t = {
  pc : int;
  mask : int;
  regs : int array;
  mem : Fragment.t;
  lo : int;
  hi : int;
}

let pc_bit = 1 lsl Reg.count
let all_regs = (1 lsl Reg.count) - 2 (* indices 1 .. count - 1 *)
let no_regs = Array.make Reg.count 0

let make ~pc ~mask ~regs mem =
  match Fragment.mem_bounds mem with
  | Some (lo, hi) -> { pc; mask; regs; mem; lo; hi }
  | None -> { pc; mask; regs; mem; lo = max_int; hi = min_int }

let empty =
  { pc = 0; mask = 0; regs = no_regs; mem = Fragment.empty; lo = max_int; hi = min_int }

let pc_only pc = { empty with pc; mask = pc_bit }

let of_state ~pc s mem =
  make ~pc ~mask:(pc_bit lor all_regs) ~regs:(Full.copy_regs s) mem

let[@inline] has_pc li = li.mask land pc_bit <> 0
let[@inline] pc li = li.pc
let[@inline] has_reg li i = li.mask land (1 lsl i) <> 0
let[@inline] reg li i = Array.unsafe_get li.regs i
let mem li = li.mem
let mem_lo li = li.lo
let mem_hi li = li.hi

let of_fragment f =
  let low, mem = Fragment.split_mem f in
  let pc = ref 0 and mask = ref 0 and regs = ref no_regs in
  Fragment.iter
    (fun c v ->
      match c with
      | Cell.Pc ->
        pc := v;
        mask := !mask lor pc_bit
      | Cell.Reg r ->
        let i = Reg.to_int r in
        if !regs == no_regs then regs := Array.make Reg.count 0;
        !regs.(i) <- v;
        mask := !mask lor (1 lsl i)
      | Cell.Mem _ -> assert false (* split off above *))
    low;
  make ~pc:!pc ~mask:!mask ~regs:!regs mem

let to_fragment li =
  let f = ref li.mem in
  for i = Reg.count - 1 downto 0 do
    if has_reg li i then f := Fragment.add (Cell.Reg (Reg.of_int i)) (reg li i) !f
  done;
  if has_pc li then Fragment.add Cell.Pc li.pc !f else !f

let add c v li =
  match c with
  | Cell.Pc -> { li with pc = v; mask = li.mask lor pc_bit }
  | Cell.Reg r ->
    let i = Reg.to_int r in
    let regs = Array.copy li.regs in
    regs.(i) <- v;
    { li with regs; mask = li.mask lor (1 lsl i) }
  | Cell.Mem a ->
    {
      li with
      mem = Fragment.add c v li.mem;
      lo = (if a < li.lo then a else li.lo);
      hi = (if a > li.hi then a else li.hi);
    }

let find_mem li a =
  if a < li.lo || a > li.hi then None else Fragment.find_opt (Cell.Mem a) li.mem

let find li = function
  | Cell.Pc -> if has_pc li then Some li.pc else None
  | Cell.Reg r ->
    let i = Reg.to_int r in
    if has_reg li i then Some (reg li i) else None
  | Cell.Mem a -> find_mem li a

let is_empty li = li.mask = 0 && Fragment.is_empty li.mem

let rec popcount n acc = if n = 0 then acc else popcount (n land (n - 1)) (acc + 1)
let cardinal li = popcount li.mask 0 + Fragment.cardinal li.mem

let fold f li acc =
  let acc = ref (if has_pc li then f Cell.Pc li.pc acc else acc) in
  for i = 0 to Reg.count - 1 do
    if has_reg li i then acc := f (Cell.Reg (Reg.of_int i)) (reg li i) !acc
  done;
  Fragment.fold f li.mem !acc

let nth li k =
  if k < 0 then invalid_arg "Live_in.nth";
  if has_pc li && k = 0 then (Cell.Pc, li.pc)
  else begin
    let k = ref (if has_pc li then k - 1 else k) and i = ref 0 in
    while !i < Reg.count && (!k > 0 || not (has_reg li !i)) do
      if has_reg li !i then decr k;
      incr i
    done;
    if !i < Reg.count then (Cell.Reg (Reg.of_int !i), reg li !i)
    else Fragment.nth li.mem !k
  end

let equal a b =
  a.mask = b.mask
  && ((not (has_pc a)) || a.pc = b.pc)
  && (let same = ref true in
      for i = 0 to Reg.count - 1 do
        if has_reg a i && reg a i <> reg b i then same := false
      done;
      !same)
  && Fragment.equal a.mem b.mem
