//! The VM interpreter.
//!
//! Executes [`Module`] code under the cycle cost model, optionally
//! simulating the L1 I-cache. The [`DispatchHandler`] trait is the seam
//! between running code and the run-time system: a
//! [`Instr::Dispatch`](crate::isa::Instr) instruction hands
//! control to the handler, which looks up (or generates) specialized code
//! and names the function to invoke. The handler receives `&mut Vm` and
//! `&mut Module`, so a dynamic compiler can execute *static calls* by
//! re-entering [`Vm::call`] and can install freshly generated functions —
//! exactly the capabilities DyC's generating extensions have.

use crate::cost::CostModel;
#[cfg(test)]
use crate::host::HostFn;
use crate::icache::ICache;
use crate::isa::{Cc, FAluOp, IAluOp, Instr, Operand, Reg, UnOp};
use crate::mem::Mem;
use crate::module::{FuncId, Module};
use crate::stats::ExecStats;
use crate::value::Value;
use std::error::Error;
use std::fmt;

/// Errors surfaced while executing guest code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Integer division by zero in guest code.
    DivideByZero,
    /// The step budget was exhausted (runaway guest loop).
    StepLimit,
    /// A `Dispatch` instruction executed but no handler was supplied.
    NoDispatchHandler,
    /// The dispatch handler failed (message from the run-time system).
    Dispatch(String),
    /// `pc` ran off the end of a function (missing terminator).
    PcOutOfRange,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivideByZero => write!(f, "integer division by zero"),
            VmError::StepLimit => write!(f, "step limit exceeded"),
            VmError::NoDispatchHandler => {
                write!(f, "dispatch executed without a run-time system attached")
            }
            VmError::Dispatch(m) => write!(f, "dispatch failed: {m}"),
            VmError::PcOutOfRange => write!(f, "pc out of range (missing terminator)"),
        }
    }
}

impl Error for VmError {}

/// What the run-time system decided at a dispatch point.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchOutcome {
    /// Invoke this function with the arguments the handler wrote into
    /// `out_args`; its return value becomes the `Dispatch` instruction's
    /// result.
    Invoke { func: FuncId },
    /// The handler already executed the specialized code itself (the
    /// native backend does this) and `value` is what the call returned;
    /// the interpreter writes it to the `Dispatch` destination register
    /// and continues without pushing a frame.
    Completed { value: Option<Value> },
}

/// The run-time system's hook into the interpreter.
pub trait DispatchHandler {
    /// Handle the dispatch at `point` with the given live values.
    ///
    /// `out_args` arrives empty; the handler appends the arguments for
    /// the function it names in the outcome. The buffer is owned and
    /// reused by the interpreter's run loop, so a steady-state dispatch
    /// performs no heap allocation.
    ///
    /// The handler must charge its own cycles into `vm.stats`
    /// (`dispatch_cycles` for the lookup, `dyncomp_cycles` for any
    /// specialization work) and may install new functions into `module`.
    ///
    /// # Errors
    ///
    /// Returns an error if specialization fails; the VM aborts the run.
    fn dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        out_args: &mut Vec<Value>,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError>;
}

/// The virtual machine: data memory, cost accounting, I-cache model and
/// output buffer. Code lives in a [`Module`] passed to [`Vm::call`], so the
/// run-time system can grow the module while the VM runs.
#[derive(Debug)]
pub struct Vm {
    cost: CostModel,
    /// Data memory (word addressed).
    pub mem: Mem,
    /// I-cache model; `None` simulates a perfect cache.
    pub icache: Option<ICache>,
    /// Accumulated counters.
    pub stats: ExecStats,
    /// Values printed by the guest (the observable output).
    pub output: Vec<Value>,
    max_steps: u64,
    /// Reusable heavy-instruction argument buffers, persisted across runs.
    buf_call: Vec<Value>,
    buf_disp: Vec<Value>,
    /// The frame stack, kept across runs. A run owns the frames above the
    /// depth it started at and pops back to that depth when it returns or
    /// fails, so a run re-entered from a dispatch handler nests on top.
    frames: Vec<Frame>,
    /// Register files of returned frames (at most [`REG_POOL_CAP`]),
    /// zeroed and reused by the next frame. With the argument buffers and
    /// the frame stack, this makes a steady-state call or dispatch
    /// allocation-free.
    reg_pool: Vec<Vec<Value>>,
}

/// Register files the pool retains; a deeper recursion frees the rest
/// on return.
const REG_POOL_CAP: usize = 64;

/// Frame-stack capacity kept once the outermost run returns; a deeper
/// recursion gives the rest back.
const FRAME_STACK_CAP: usize = 256;

#[derive(Debug)]
struct Frame {
    func: FuncId,
    pc: u32,
    regs: Vec<Value>,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
}

impl Vm {
    /// A VM with the given cost model and the 21164 I-cache.
    pub fn new(cost: CostModel) -> Vm {
        Vm {
            cost,
            mem: Mem::new(),
            icache: Some(ICache::alpha21164()),
            stats: ExecStats::new(),
            output: Vec::new(),
            max_steps: u64::MAX,
            buf_call: Vec::new(),
            buf_disp: Vec::new(),
            frames: Vec::new(),
            reg_pool: Vec::new(),
        }
    }

    /// A VM with a perfect I-cache (unit tests, semantics-only runs).
    pub fn without_icache(cost: CostModel) -> Vm {
        let mut vm = Vm::new(cost);
        vm.icache = None;
        vm
    }

    /// Limit the number of executed instructions (guards tests against
    /// runaway guest loops).
    pub fn set_step_limit(&mut self, steps: u64) {
        self.max_steps = steps;
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Invalidate the I-cache (called by the run-time system after
    /// installing code, modeling `imb` on the Alpha).
    pub fn flush_icache(&mut self) {
        if let Some(c) = &mut self.icache {
            c.flush();
        }
    }

    /// Run `func` with `args`; `Dispatch` instructions are errors.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by guest code.
    pub fn call(
        &mut self,
        module: &mut Module,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.run(module, None, func, args)
    }

    /// Run `func` with `args` under a run-time system.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by guest code or the handler.
    pub fn call_with_handler(
        &mut self,
        module: &mut Module,
        handler: &mut dyn DispatchHandler,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.run(module, Some(handler), func, args)
    }

    /// Push a frame for `func`, taking its register file from the pool.
    /// The file is zeroed before the arguments are copied in, exactly as a
    /// fresh one would be.
    fn push_frame(&mut self, module: &Module, func: FuncId, args: &[Value], ret_dst: Option<Reg>) {
        let f = module.func(func);
        debug_assert_eq!(args.len(), f.n_params, "arity mismatch calling {}", f.name);
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.n_regs, Value::default());
        regs[..args.len()].copy_from_slice(args);
        self.frames.push(Frame {
            func,
            pc: 0,
            regs,
            ret_dst,
        });
    }

    /// Pop the top frame, returning its register file to the pool.
    fn pop_frame(&mut self) {
        if let Some(done) = self.frames.pop() {
            if self.reg_pool.len() < REG_POOL_CAP {
                self.reg_pool.push(done.regs);
            }
        }
    }

    fn run(
        &mut self,
        module: &mut Module,
        handler: Option<&mut dyn DispatchHandler>,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        // Borrow the persistent argument buffers out of `self` for the
        // duration of the run (the handler needs `&mut Vm` alongside
        // them), then hand them back so their capacity carries over to
        // the next run. A reentrant run sees empty buffers and restores
        // its own on the way out.
        let mut call_vals = std::mem::take(&mut self.buf_call);
        let mut disp_args = std::mem::take(&mut self.buf_disp);
        let base = self.frames.len();
        self.push_frame(module, func, args, None);
        let r = self.run_inner(module, handler, base, &mut call_vals, &mut disp_args);
        // `Ret` from the base frame leaves the stack at `base`; an error
        // or `Halt` leaves frames above it.
        while self.frames.len() > base {
            self.pop_frame();
        }
        if base == 0 && self.frames.capacity() > FRAME_STACK_CAP {
            self.frames.shrink_to(FRAME_STACK_CAP);
        }
        self.buf_call = call_vals;
        self.buf_disp = disp_args;
        r
    }

    #[allow(clippy::too_many_lines)]
    fn run_inner(
        &mut self,
        module: &mut Module,
        mut handler: Option<&mut dyn DispatchHandler>,
        base: usize,
        call_vals: &mut Vec<Value>,
        disp_args: &mut Vec<Value>,
    ) -> Result<Option<Value>, VmError> {
        let mut steps = 0u64;

        'outer: while let Some(frame) = self.frames.last_mut() {
            let f = module.func(frame.func);
            if frame.pc as usize >= f.code.len() {
                return Err(VmError::PcOutOfRange);
            }
            steps += 1;
            if steps > self.max_steps {
                return Err(VmError::StepLimit);
            }

            // Instruction fetch: cost + I-cache.
            let addr = f.addr_of(frame.pc);
            if let Some(ic) = &mut self.icache {
                if ic.access(addr) {
                    self.stats.icache_miss_cycles += self.cost.icache_miss;
                }
            }
            self.stats.instrs_executed += 1;

            // Decode. Cheap instructions are handled by reference; the two
            // that need `&mut Module` (Call frame setup, Dispatch) read
            // their argument values into the reusable buffer so the borrow
            // of `module` can be released without cloning the register
            // list.
            enum Heavy {
                Call { func: FuncId, dst: Option<Reg> },
                Dispatch { point: u32, dst: Option<Reg> },
            }
            let mut heavy: Option<Heavy> = None;
            {
                let instr = &f.code[frame.pc as usize];
                self.stats.exec_cycles += self.cost.instr_cost(instr);
                match instr {
                    Instr::MovI { dst, imm } => {
                        frame.regs[*dst as usize] = Value::I(*imm);
                    }
                    Instr::MovF { dst, imm } => {
                        frame.regs[*dst as usize] = Value::F(*imm);
                    }
                    Instr::Mov { dst, src } | Instr::FMov { dst, src } => {
                        frame.regs[*dst as usize] = frame.regs[*src as usize];
                    }
                    Instr::IAlu { op, dst, a, b } => {
                        let a = frame.regs[*a as usize].as_i();
                        let b = operand_i(&frame.regs, *b);
                        frame.regs[*dst as usize] = Value::I(ialu(*op, a, b)?);
                    }
                    Instr::FAlu { op, dst, a, b } => {
                        let a = frame.regs[*a as usize].as_f();
                        let b = frame.regs[*b as usize].as_f();
                        frame.regs[*dst as usize] = Value::F(falu(*op, a, b));
                    }
                    Instr::ICmp { cc, dst, a, b } => {
                        let a = frame.regs[*a as usize].as_i();
                        let b = operand_i(&frame.regs, *b);
                        frame.regs[*dst as usize] = Value::I(icmp(*cc, a, b) as i64);
                    }
                    Instr::FCmp { cc, dst, a, b } => {
                        let a = frame.regs[*a as usize].as_f();
                        let b = frame.regs[*b as usize].as_f();
                        frame.regs[*dst as usize] = Value::I(fcmp(*cc, a, b) as i64);
                    }
                    Instr::Un { op, dst, src } => {
                        let v = frame.regs[*src as usize];
                        frame.regs[*dst as usize] = unop(*op, v);
                    }
                    Instr::Load { ty, dst, base, idx } => {
                        let addr = frame.regs[*base as usize].as_i() + operand_i(&frame.regs, *idx);
                        frame.regs[*dst as usize] = self.mem.read(addr, *ty);
                    }
                    Instr::Store { ty, base, idx, src } => {
                        let addr = frame.regs[*base as usize].as_i() + operand_i(&frame.regs, *idx);
                        let _ = ty;
                        self.mem.write(addr, frame.regs[*src as usize]);
                    }
                    Instr::Jmp { target } => {
                        frame.pc = *target;
                        continue 'outer;
                    }
                    Instr::Brz { cond, target } => {
                        if !frame.regs[*cond as usize].is_truthy() {
                            frame.pc = *target;
                            continue 'outer;
                        }
                    }
                    Instr::Brnz { cond, target } => {
                        if frame.regs[*cond as usize].is_truthy() {
                            frame.pc = *target;
                            continue 'outer;
                        }
                    }
                    Instr::Ret { src } => {
                        let rv = src.map(|r| frame.regs[r as usize]);
                        let ret_dst = frame.ret_dst;
                        self.pop_frame();
                        if self.frames.len() == base {
                            return Ok(rv);
                        }
                        if let (Some(dst), Some(v), Some(caller)) =
                            (ret_dst, rv, self.frames.last_mut())
                        {
                            caller.regs[dst as usize] = v;
                        }
                        continue 'outer;
                    }
                    Instr::Halt => return Ok(None),
                    Instr::CallHost { f, dst, args } => {
                        call_vals.clear();
                        call_vals.extend(args.iter().map(|&r| frame.regs[r as usize]));
                        let rv = f.eval(call_vals, &mut self.output);
                        if let (Some(d), Some(v)) = (dst, rv) {
                            frame.regs[*d as usize] = v;
                        }
                    }
                    Instr::Call { func, dst, args } => {
                        call_vals.clear();
                        call_vals.extend(args.iter().map(|&r| frame.regs[r as usize]));
                        heavy = Some(Heavy::Call {
                            func: *func,
                            dst: *dst,
                        });
                    }
                    Instr::Dispatch { point, dst, args } => {
                        call_vals.clear();
                        call_vals.extend(args.iter().map(|&r| frame.regs[r as usize]));
                        heavy = Some(Heavy::Dispatch {
                            point: *point,
                            dst: *dst,
                        });
                    }
                }
                if heavy.is_none() {
                    frame.pc += 1;
                    continue 'outer;
                }
            }

            // Heavy instructions: the borrow of `module` is released here.
            match heavy.unwrap() {
                Heavy::Call { func: callee, dst } => {
                    frame.pc += 1;
                    self.push_frame(module, callee, call_vals, dst);
                }
                Heavy::Dispatch { point, dst } => {
                    frame.pc += 1;
                    self.stats.dispatches += 1;
                    disp_args.clear();
                    let outcome = match handler.as_deref_mut() {
                        None => return Err(VmError::NoDispatchHandler),
                        Some(h) => h.dispatch(point, call_vals, disp_args, module, self)?,
                    };
                    match outcome {
                        DispatchOutcome::Invoke { func: callee } => {
                            self.stats.exec_cycles += self.cost.call;
                            self.push_frame(module, callee, disp_args, dst);
                        }
                        DispatchOutcome::Completed { value } => {
                            if let (Some(d), Some(v), Some(frame)) =
                                (dst, value, self.frames.last_mut())
                            {
                                frame.regs[d as usize] = v;
                            }
                        }
                    }
                }
            }
        }
        Ok(None)
    }
}

#[inline]
fn operand_i(regs: &[Value], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r as usize].as_i(),
        Operand::Imm(v) => v,
    }
}

#[inline]
fn ialu(op: IAluOp, a: i64, b: i64) -> Result<i64, VmError> {
    Ok(match op {
        IAluOp::Add => a.wrapping_add(b),
        IAluOp::Sub => a.wrapping_sub(b),
        IAluOp::Mul => a.wrapping_mul(b),
        IAluOp::Div => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            a.wrapping_div(b)
        }
        IAluOp::Rem => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        IAluOp::And => a & b,
        IAluOp::Or => a | b,
        IAluOp::Xor => a ^ b,
        IAluOp::Shl => a.wrapping_shl(b as u32 & 63),
        IAluOp::Shr => a.wrapping_shr(b as u32 & 63),
    })
}

#[inline]
fn falu(op: FAluOp, a: f64, b: f64) -> f64 {
    match op {
        FAluOp::Add => a + b,
        FAluOp::Sub => a - b,
        FAluOp::Mul => a * b,
        FAluOp::Div => a / b,
    }
}

#[inline]
fn icmp(cc: Cc, a: i64, b: i64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

#[inline]
fn fcmp(cc: Cc, a: f64, b: f64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

#[inline]
fn unop(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::NegI => Value::I(v.as_i().wrapping_neg()),
        UnOp::NotI => Value::I(!v.as_i()),
        UnOp::NegF => Value::F(-v.as_f()),
        UnOp::IToF => Value::F(v.as_i() as f64),
        UnOp::FToI => Value::I(v.as_f() as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Ty;

    fn run_func(f: CodeFuncSpec) -> (Option<Value>, Vm) {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", f.n_params, f.n_regs);
        for i in f.code {
            cf.push(i);
        }
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        vm.set_step_limit(100_000);
        let out = vm.call(&mut m, id, &f.args).unwrap();
        (out, vm)
    }

    struct CodeFuncSpec {
        n_params: usize,
        n_regs: usize,
        code: Vec<Instr>,
        args: Vec<Value>,
    }

    #[test]
    fn arithmetic_and_return() {
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 2,
            n_regs: 3,
            code: vec![
                Instr::IAlu {
                    op: IAluOp::Mul,
                    dst: 2,
                    a: 0,
                    b: Operand::Reg(1),
                },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 2,
                    a: 2,
                    b: Operand::Imm(1),
                },
                Instr::Ret { src: Some(2) },
            ],
            args: vec![Value::I(6), Value::I(7)],
        });
        assert_eq!(out, Some(Value::I(43)));
    }

    #[test]
    fn float_ops() {
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 2,
            n_regs: 3,
            code: vec![
                Instr::FAlu {
                    op: FAluOp::Div,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::Ret { src: Some(2) },
            ],
            args: vec![Value::F(1.0), Value::F(4.0)],
        });
        assert_eq!(out, Some(Value::F(0.25)));
    }

    #[test]
    fn branch_loop_counts() {
        // sum = 0; for (i = 0; i < n; i++) sum += i; return sum
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 1,
            n_regs: 4,
            code: vec![
                Instr::MovI { dst: 1, imm: 0 }, // sum
                Instr::MovI { dst: 2, imm: 0 }, // i
                Instr::ICmp {
                    cc: Cc::Lt,
                    dst: 3,
                    a: 2,
                    b: Operand::Reg(0),
                }, // 2: i<n
                Instr::Brz { cond: 3, target: 7 },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 1,
                    a: 1,
                    b: Operand::Reg(2),
                },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 2,
                    a: 2,
                    b: Operand::Imm(1),
                },
                Instr::Jmp { target: 2 },
                Instr::Ret { src: Some(1) }, // 7
            ],
            args: vec![Value::I(10)],
        });
        assert_eq!(out, Some(Value::I(45)));
    }

    #[test]
    fn memory_round_trip() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 1, 3);
        cf.push(Instr::MovI { dst: 1, imm: 99 });
        cf.push(Instr::Store {
            ty: Ty::Int,
            base: 0,
            idx: Operand::Imm(2),
            src: 1,
        });
        cf.push(Instr::Load {
            ty: Ty::Int,
            dst: 2,
            base: 0,
            idx: Operand::Imm(2),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let base = vm.mem.alloc(4);
        let out = vm.call(&mut m, id, &[Value::I(base)]).unwrap();
        assert_eq!(out, Some(Value::I(99)));
        assert_eq!(vm.mem.read_int(base + 2), 99);
    }

    #[test]
    fn nested_calls() {
        let mut m = Module::new();
        let mut inner = crate::module::CodeFunc::new("inner", 1, 2);
        inner.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 1,
            a: 0,
            b: Operand::Imm(2),
        });
        inner.push(Instr::Ret { src: Some(1) });
        let inner_id = m.add_func(inner);
        let mut outer = crate::module::CodeFunc::new("outer", 1, 2);
        outer.push(Instr::Call {
            func: inner_id,
            dst: Some(1),
            args: vec![0],
        });
        outer.push(Instr::IAlu {
            op: IAluOp::Add,
            dst: 1,
            a: 1,
            b: Operand::Imm(1),
        });
        outer.push(Instr::Ret { src: Some(1) });
        let outer_id = m.add_func(outer);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(
            vm.call(&mut m, outer_id, &[Value::I(5)]).unwrap(),
            Some(Value::I(11))
        );
    }

    #[test]
    fn host_call_and_output() {
        let (out, vm) = run_func(CodeFuncSpec {
            n_params: 1,
            n_regs: 2,
            code: vec![
                Instr::CallHost {
                    f: HostFn::PrintI,
                    dst: None,
                    args: vec![0],
                },
                Instr::MovF { dst: 1, imm: 0.0 },
                Instr::CallHost {
                    f: HostFn::Cos,
                    dst: Some(1),
                    args: vec![1],
                },
                Instr::Ret { src: None },
            ],
            args: vec![Value::I(5)],
        });
        assert_eq!(out, None);
        assert_eq!(vm.output, vec![Value::I(5)]);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 2, 3);
        cf.push(Instr::IAlu {
            op: IAluOp::Div,
            dst: 2,
            a: 0,
            b: Operand::Reg(1),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let err = vm
            .call(&mut m, id, &[Value::I(1), Value::I(0)])
            .unwrap_err();
        assert_eq!(err, VmError::DivideByZero);
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        cf.push(Instr::Jmp { target: 0 });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        vm.set_step_limit(1000);
        assert_eq!(vm.call(&mut m, id, &[]).unwrap_err(), VmError::StepLimit);
    }

    #[test]
    fn dispatch_without_handler_errors() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        cf.push(Instr::Dispatch {
            point: 0,
            dst: None,
            args: vec![],
        });
        cf.push(Instr::Ret { src: None });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(
            vm.call(&mut m, id, &[]).unwrap_err(),
            VmError::NoDispatchHandler
        );
    }

    #[test]
    fn dispatch_invokes_handler_supplied_code() {
        struct H;
        impl DispatchHandler for H {
            fn dispatch(
                &mut self,
                point: u32,
                args: &[Value],
                out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                assert_eq!(point, 7);
                vm.stats.dispatch_cycles += 10;
                // Generate code on the fly: returns args[0] + 100.
                let mut g = crate::module::CodeFunc::new("gen", 1, 2);
                g.push(Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 1,
                    a: 0,
                    b: Operand::Imm(100),
                });
                g.push(Instr::Ret { src: Some(1) });
                let gid = module.add_func(g);
                out_args.extend_from_slice(args);
                Ok(DispatchOutcome::Invoke { func: gid })
            }
        }
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 1, 2);
        cf.push(Instr::Dispatch {
            point: 7,
            dst: Some(1),
            args: vec![0],
        });
        cf.push(Instr::Ret { src: Some(1) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let out = vm
            .call_with_handler(&mut m, &mut H, id, &[Value::I(1)])
            .unwrap();
        assert_eq!(out, Some(Value::I(101)));
        assert_eq!(vm.stats.dispatches, 1);
        assert_eq!(vm.stats.dispatch_cycles, 10);
    }

    #[test]
    fn handler_may_reenter_the_vm() {
        // The run-time system executes *static calls* by re-entering
        // Vm::call from inside a dispatch; the interpreter must support
        // that reentrancy.
        struct H;
        impl DispatchHandler for H {
            fn dispatch(
                &mut self,
                _point: u32,
                args: &[Value],
                _out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                // Evaluate a helper function during "specialization".
                let helper = module.func_by_name("helper").unwrap();
                let v = vm.call(module, helper, &[args[0]])?.unwrap();
                // Generate code returning that precomputed value.
                let mut g = crate::module::CodeFunc::new("gen", 0, 1);
                g.push(Instr::MovI {
                    dst: 0,
                    imm: v.as_i(),
                });
                g.push(Instr::Ret { src: Some(0) });
                let gid = module.add_func(g);
                Ok(DispatchOutcome::Invoke { func: gid })
            }
        }
        let mut m = Module::new();
        let mut helper = crate::module::CodeFunc::new("helper", 1, 2);
        helper.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 1,
            a: 0,
            b: Operand::Imm(7),
        });
        helper.push(Instr::Ret { src: Some(1) });
        m.add_func(helper);
        let mut region = crate::module::CodeFunc::new("region", 1, 2);
        region.push(Instr::Dispatch {
            point: 0,
            dst: Some(1),
            args: vec![0],
        });
        region.push(Instr::Ret { src: Some(1) });
        let rid = m.add_func(region);
        let mut vm = Vm::without_icache(CostModel::unit());
        let out = vm
            .call_with_handler(&mut m, &mut H, rid, &[Value::I(6)])
            .unwrap();
        assert_eq!(out, Some(Value::I(42)));
    }

    /// `down(n)` recurses `n` deep and returns `n`.
    fn countdown_module() -> (Module, FuncId) {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("down", 1, 3);
        cf.push(Instr::Brnz { cond: 0, target: 2 });
        cf.push(Instr::Ret { src: Some(0) });
        cf.push(Instr::IAlu {
            op: IAluOp::Sub,
            dst: 1,
            a: 0,
            b: Operand::Imm(1),
        });
        cf.push(Instr::Call {
            func: FuncId(0),
            dst: Some(2),
            args: vec![1],
        });
        cf.push(Instr::IAlu {
            op: IAluOp::Add,
            dst: 2,
            a: 2,
            b: Operand::Imm(1),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let id = m.add_func(cf);
        assert_eq!(id, FuncId(0));
        (m, id)
    }

    #[test]
    fn deep_recursion_leaves_a_bounded_pool() {
        let (mut m, down) = countdown_module();
        let mut vm = Vm::without_icache(CostModel::unit());
        let deep = vm.call(&mut m, down, &[Value::I(10_000)]).unwrap();
        assert_eq!(deep, Some(Value::I(10_000)));
        assert!(vm.frames.is_empty());
        assert_eq!(vm.reg_pool.len(), REG_POOL_CAP);
        assert!(vm.frames.capacity() <= FRAME_STACK_CAP);
        let shallow = vm.call(&mut m, down, &[Value::I(2)]).unwrap();
        assert_eq!(shallow, Some(Value::I(2)));
        assert!(vm.frames.is_empty());
        assert!(vm.reg_pool.len() <= REG_POOL_CAP);
    }

    #[test]
    fn pooled_register_files_start_zeroed() {
        let mut m = Module::new();
        let mut dirty = crate::module::CodeFunc::new("dirty", 0, 4);
        dirty.push(Instr::MovI { dst: 3, imm: 99 });
        dirty.push(Instr::Ret { src: Some(3) });
        let dirty = m.add_func(dirty);
        // Reads a register it never writes: a fresh file holds zero.
        let mut clean = crate::module::CodeFunc::new("clean", 1, 4);
        clean.push(Instr::Ret { src: Some(3) });
        let clean = m.add_func(clean);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(vm.call(&mut m, dirty, &[]).unwrap(), Some(Value::I(99)));
        assert_eq!(
            vm.call(&mut m, clean, &[Value::I(5)]).unwrap(),
            Some(Value::I(0))
        );
    }

    #[test]
    fn a_failed_reentrant_run_unwinds_only_its_own_frames() {
        // The handler re-enters the VM with a call that faults three
        // frames deep, swallows the error, and resumes the outer run.
        struct H(FuncId);
        impl DispatchHandler for H {
            fn dispatch(
                &mut self,
                _point: u32,
                args: &[Value],
                out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                let depth = vm.frames.len();
                let err = vm.call(module, self.0, &[Value::I(3)]).unwrap_err();
                assert_eq!(err, VmError::DivideByZero);
                assert_eq!(vm.frames.len(), depth);
                out_args.extend_from_slice(args);
                Ok(DispatchOutcome::Completed {
                    value: Some(Value::I(args[0].as_i() + 1)),
                })
            }
        }
        let mut m = Module::new();
        // `fault(n)`: recurse to n == 0, then divide by it.
        let mut fault = crate::module::CodeFunc::new("fault", 1, 3);
        fault.push(Instr::Brnz { cond: 0, target: 2 });
        fault.push(Instr::IAlu {
            op: IAluOp::Div,
            dst: 1,
            a: 0,
            b: Operand::Reg(0),
        });
        fault.push(Instr::IAlu {
            op: IAluOp::Sub,
            dst: 1,
            a: 0,
            b: Operand::Imm(1),
        });
        fault.push(Instr::Call {
            func: FuncId(0),
            dst: Some(2),
            args: vec![1],
        });
        fault.push(Instr::Ret { src: Some(2) });
        let fault = m.add_func(fault);
        assert_eq!(fault, FuncId(0));
        let mut region = crate::module::CodeFunc::new("region", 1, 3);
        region.push(Instr::Dispatch {
            point: 0,
            dst: Some(1),
            args: vec![0],
        });
        region.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 2,
            a: 1,
            b: Operand::Reg(0),
        });
        region.push(Instr::Ret { src: Some(2) });
        let region = m.add_func(region);
        let mut vm = Vm::without_icache(CostModel::unit());
        for _ in 0..2 {
            let out = vm
                .call_with_handler(&mut m, &mut H(fault), region, &[Value::I(6)])
                .unwrap();
            assert_eq!(out, Some(Value::I(42)));
            assert!(vm.frames.is_empty());
        }
    }

    #[test]
    fn cycle_accounting_uses_cost_model() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 2);
        cf.push(Instr::MovF { dst: 0, imm: 2.0 });
        cf.push(Instr::FAlu {
            op: FAluOp::Mul,
            dst: 1,
            a: 0,
            b: 0,
        });
        cf.push(Instr::Ret { src: Some(1) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::alpha21164());
        vm.call(&mut m, id, &[]).unwrap();
        let c = CostModel::alpha21164();
        assert_eq!(vm.stats.exec_cycles, c.mov_imm + c.fp_mul + c.call);
        assert_eq!(vm.stats.instrs_executed, 3);
    }

    #[test]
    fn icache_charged_on_misses() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        for _ in 0..15 {
            cf.push(Instr::MovI { dst: 0, imm: 1 });
        }
        cf.push(Instr::Ret { src: None });
        let id = m.add_func(cf);
        let mut vm = Vm::new(CostModel::alpha21164());
        vm.call(&mut m, id, &[]).unwrap();
        // 16 instructions = 64 bytes = 2 lines -> 2 misses.
        assert_eq!(vm.stats.icache_miss_cycles, 2 * vm.cost_model().icache_miss);
    }
}
