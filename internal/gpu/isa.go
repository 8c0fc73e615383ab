// Package gpu implements the GPU compute model of the APU simulator: a
// SIMD machine of compute units executing 16-lane wavefronts over a small
// vector/scalar ISA, with per-lane 32-bit vector general-purpose registers
// (the VGPR file whose vulnerability the paper's case study analyzes),
// EXEC-mask structured divergence, and loads/stores routed through the
// cache hierarchy.
package gpu

import "fmt"

// Lanes is the wavefront width: the paper's model operates on 16 threads
// at a time, and inter-thread register interleaving happens within these
// groups of 16.
const Lanes = 16

// Opcode enumerates the ISA.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Vector ALU (per active lane, 32-bit).
	OpVMov     // dst = src0
	OpVAdd     // dst = src0 + src1
	OpVSub     // dst = src0 - src1
	OpVMul     // dst = src0 * src1 (low 32 bits)
	OpVMad     // dst = src0*src1 + src2
	OpVAnd     // dst = src0 & src1
	OpVOr      // dst = src0 | src1
	OpVXor     // dst = src0 ^ src1
	OpVNot     // dst = ^src0
	OpVShl     // dst = src0 << (src1 & 31)
	OpVShr     // dst = src0 >> (src1 & 31) logical
	OpVAshr    // dst = int32(src0) >> (src1 & 31)
	OpVMin     // dst = min(int32(src0), int32(src1))
	OpVMax     // dst = max(int32(src0), int32(src1))
	OpVCndMask // dst = VCC[lane] ? src0 : src1

	// Vector compares: write per-lane bits of VCC.
	OpVCmpEQ
	OpVCmpNE
	OpVCmpLT // signed
	OpVCmpLE
	OpVCmpGT
	OpVCmpGE
	OpVCmpFLT // float <
	OpVCmpFGE // float >=

	// Vector float (IEEE-754 single precision on the raw register bits).
	OpVFAdd
	OpVFSub
	OpVFMul
	OpVFMad // dst = src0*src1 + src2
	OpVFDiv
	OpVFSqrt
	OpVFExp // e^x
	OpVFMin
	OpVFMax
	OpVI2F // int32 -> float
	OpVF2I // float -> int32 (truncate)

	// Vector memory. Addresses are per-lane byte addresses from src0 plus
	// the signed immediate in src1; word accesses must be 4-byte aligned.
	OpVLoad   // dst = mem32[src0 + imm]
	OpVStore  // mem32[src0 + imm] = src2
	OpVLoadB  // dst = zext(mem8[src0 + imm])
	OpVStoreB // mem8[src0 + imm] = src2 & 0xFF

	// Structured divergence on VCC.
	OpIfVCC // push exec; exec &= VCC
	OpElse  // exec = saved & ^then-mask
	OpEndIf // pop exec

	// Scalar (wavefront-uniform) ALU and control.
	OpSMov // sdst = src0
	OpSAdd // sdst = src0 + src1
	OpSSub
	OpSMul
	OpSShl
	OpSShr
	OpSAnd
	OpSSlt // sdst = (int32(src0) < int32(src1)) ? 1 : 0
	OpBr   // pc = target
	OpBrz  // if src0 == 0: pc = target
	OpBrnz // if src0 != 0: pc = target

	// OpEndPgm terminates the wavefront.
	OpEndPgm
)

var opNames = map[Opcode]string{
	OpNop:  "nop",
	OpVMov: "v_mov", OpVAdd: "v_add", OpVSub: "v_sub", OpVMul: "v_mul",
	OpVMad: "v_mad", OpVAnd: "v_and", OpVOr: "v_or", OpVXor: "v_xor",
	OpVNot: "v_not", OpVShl: "v_shl", OpVShr: "v_shr", OpVAshr: "v_ashr",
	OpVMin: "v_min", OpVMax: "v_max", OpVCndMask: "v_cndmask",
	OpVCmpEQ: "v_cmp_eq", OpVCmpNE: "v_cmp_ne", OpVCmpLT: "v_cmp_lt",
	OpVCmpLE: "v_cmp_le", OpVCmpGT: "v_cmp_gt", OpVCmpGE: "v_cmp_ge",
	OpVCmpFLT: "v_cmp_flt", OpVCmpFGE: "v_cmp_fge",
	OpVFAdd: "v_fadd", OpVFSub: "v_fsub", OpVFMul: "v_fmul", OpVFMad: "v_fmad",
	OpVFDiv: "v_fdiv", OpVFSqrt: "v_fsqrt", OpVFExp: "v_fexp",
	OpVFMin: "v_fmin", OpVFMax: "v_fmax", OpVI2F: "v_i2f", OpVF2I: "v_f2i",
	OpVLoad: "v_load", OpVStore: "v_store", OpVLoadB: "v_loadb", OpVStoreB: "v_storeb",
	OpIfVCC: "s_if_vcc", OpElse: "s_else", OpEndIf: "s_endif",
	OpSMov: "s_mov", OpSAdd: "s_add", OpSSub: "s_sub", OpSMul: "s_mul",
	OpSShl: "s_shl", OpSShr: "s_shr", OpSAnd: "s_and", OpSSlt: "s_slt",
	OpBr: "s_branch", OpBrz: "s_brz", OpBrnz: "s_brnz",
	OpEndPgm: "s_endpgm",
}

func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// OperandKind selects what an instruction operand refers to.
type OperandKind uint8

const (
	OpdNone OperandKind = iota
	OpdVReg             // vector register, per-lane
	OpdSReg             // scalar register, wave-uniform
	OpdImm              // 32-bit immediate
	OpdLane             // lane index 0..15
	OpdWave             // global wavefront index within the dispatch
	OpdTid              // global thread id: wave*16 + lane
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Val  int32 // register index for OpdVReg/OpdSReg, value for OpdImm
}

// V returns a vector register operand.
func V(i int) Operand { return Operand{Kind: OpdVReg, Val: int32(i)} }

// S returns a scalar register operand.
func S(i int) Operand { return Operand{Kind: OpdSReg, Val: int32(i)} }

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OpdImm, Val: v} }

// ImmF returns a float32 immediate operand (raw IEEE-754 bits).
func ImmF(v float32) Operand {
	return Operand{Kind: OpdImm, Val: int32(f32bits(v))}
}

// LaneID returns the lane-index source operand.
func LaneID() Operand { return Operand{Kind: OpdLane} }

// WaveID returns the wavefront-index source operand.
func WaveID() Operand { return Operand{Kind: OpdWave} }

// Tid returns the global-thread-id source operand.
func Tid() Operand { return Operand{Kind: OpdTid} }

// Instr is one decoded instruction.
type Instr struct {
	Op     Opcode
	Dst    Operand
	Src    [3]Operand
	Target int32 // branch target (instruction index), resolved by the builder
}

func (in Instr) String() string {
	return fmt.Sprintf("%s dst=%v src=%v target=%d", in.Op, in.Dst, in.Src, in.Target)
}

// Program is an executable kernel.
type Program struct {
	Name     string
	Code     []Instr
	NumVRegs int
	NumSRegs int
}

// NamesVReg reports whether any instruction of p names vector register
// reg, as its destination or as a source. It reads the code, not
// NumVRegs: a wave can only ever read or write the registers its code
// names, whatever budget the program declares.
func (p *Program) NamesVReg(reg int) bool {
	for _, in := range p.Code {
		if in.Dst.Kind == OpdVReg && int(in.Dst.Val) == reg {
			return true
		}
		for _, o := range in.Src {
			if o.Kind == OpdVReg && int(o.Val) == reg {
				return true
			}
		}
	}
	return false
}
