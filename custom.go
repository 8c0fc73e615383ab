package mbavf

import (
	"fmt"

	"mbavf/internal/gpu"
	"mbavf/internal/sim"
)

// Kernel is a compiled GPU kernel usable in custom workloads.
type Kernel struct {
	prog *gpu.Program
}

// Name returns the kernel's name.
func (k Kernel) Name() string { return k.prog.Name }

// Disassemble renders the kernel back to assembler text.
func (k Kernel) Disassemble() string { return gpu.Disassemble(k.prog) }

// AssembleKernel compiles assembler text into a kernel. The syntax is one
// instruction per line:
//
//	v_mov   v0, tid        ; v/s registers, tid/lane/wave specials
//	v_shl   v0, v0, 2      ; integer immediates (decimal, hex)
//	v_add   v1, v0, s0     ; dispatch args arrive in s0, s1, ...
//	v_load  v2, [v1+0]     ; [reg+offset] addressing
//	v_fmul  v2, v2, 2.5f   ; float immediates with an f suffix
//	v_cmp_lt v2, 100       ; compares write the VCC lane mask
//	s_if_vcc               ; structured divergence on VCC
//	s_endif
//	s_brnz  s1, loop       ; scalar-condition branches to labels
//	s_endpgm
func AssembleKernel(name, source string) (Kernel, error) {
	p, err := gpu.Assemble(name, source)
	if err != nil {
		return Kernel{}, err
	}
	return Kernel{prog: p}, nil
}

// Custom builds a user-defined workload: allocate buffers, dispatch
// kernels, then Finish to obtain a Run for AVF analysis. Methods record
// the first error and subsequent calls become no-ops, so a recipe can be
// written without per-call error checks and validated at Finish.
type Custom struct {
	session *sim.Session
	err     error
	done    bool
}

// NewCustom starts a custom workload on the default instrumented APU.
func NewCustom() (*Custom, error) {
	s, err := sim.NewSession(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Custom{session: s}, nil
}

// Input allocates a buffer initialized with the given 32-bit words and
// returns its address.
func (c *Custom) Input(words []uint32) uint32 {
	if c.err != nil || c.bad("Input") {
		return 0
	}
	addr, err := c.session.InputWords(words)
	c.err = err
	return addr
}

// InputBytes allocates a byte buffer input.
func (c *Custom) InputBytes(data []byte) uint32 {
	if c.err != nil || c.bad("InputBytes") {
		return 0
	}
	addr, err := c.session.InputBytes(data)
	c.err = err
	return addr
}

// Output allocates an n-word buffer declared as final program output
// (what the program-level SDC analysis treats as architecturally
// visible).
func (c *Custom) Output(nWords int) uint32 {
	if c.err != nil || c.bad("Output") {
		return 0
	}
	return c.session.OutputWords(nWords)
}

// Scratch allocates an n-word intermediate buffer (not program output).
func (c *Custom) Scratch(nWords int) uint32 {
	if c.err != nil || c.bad("Scratch") {
		return 0
	}
	return c.session.ScratchWords(nWords)
}

// MarkOutput declares an existing buffer (e.g. an input transformed in
// place) as program output.
func (c *Custom) MarkOutput(addr uint32, nWords int) {
	if c.err != nil || c.bad("MarkOutput") {
		return
	}
	c.session.DeclareOutput(addr, 4*nWords)
}

// Dispatch runs waves wavefronts of the kernel; args land in scalar
// registers s0, s1, ... of every wavefront.
func (c *Custom) Dispatch(k Kernel, waves int, args ...uint32) {
	if c.err != nil || c.bad("Dispatch") {
		return
	}
	if k.prog == nil {
		c.err = fmt.Errorf("mbavf: Dispatch with zero Kernel")
		return
	}
	c.err = c.session.Run(gpu.Dispatch{Prog: k.prog, Waves: waves, Args: args})
}

func (c *Custom) bad(op string) bool {
	if c.done {
		c.err = fmt.Errorf("mbavf: %s after Finish", op)
		return true
	}
	return false
}

// Finish finalizes the workload (flushing caches, solving liveness) and
// returns the Run for AVF analysis, plus any error accumulated by the
// recipe.
func (c *Custom) Finish() (*Run, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.done {
		return nil, fmt.Errorf("mbavf: Finish called twice")
	}
	c.done = true
	if err := c.session.Finalize(); err != nil {
		return nil, err
	}
	return &Run{m: c.session.Measurements()}, nil
}

// ReadWords reads back n 32-bit words from the simulated memory, e.g. to
// inspect results after Finish.
func (c *Custom) ReadWords(addr uint32, n int) ([]uint32, error) {
	return c.session.Mem.Words(addr, n)
}
