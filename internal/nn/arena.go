package nn

import "heteroswitch/internal/tensor"

// ArenaUser is the capability a Layer implements to draw its per-batch
// output, gradient, and scratch tensors from a shared tensor.Arena instead
// of allocating fresh ones. Network.SetArena propagates one arena through
// the whole layer tree; composite layers (Residual, Parallel, SEBlock,
// nested Networks) forward the call to their children so a model shares a
// single arena per replica.
//
// Arena ownership rules (see also tensor.Arena): every tensor a layer
// obtains from the arena is valid only for the current batch — the owning
// Network resets the arena at the top of each Forward. Anything that must
// survive a batch boundary (parameters, gradient accumulators, optimizer
// state, running statistics, weight snapshots) must NOT come from the arena.
// What a layer keeps from Forward for the matching Backward may: a dense,
// conv or batch-norm layer's reference to its input, itself an arena tensor,
// stays intact because within one batch the arena never hands out the same
// buffer twice.
type ArenaUser interface {
	SetArena(a *tensor.Arena)
}

// arenaScratch is embedded by layers to get SetArena plus the alloc helpers.
// With no arena attached (bare layers constructed outside a Network, as the
// gradient-check tests do) allocation falls back to tensor.New, with the
// same results.
type arenaScratch struct {
	arena *tensor.Arena
}

// SetArena implements ArenaUser.
func (s *arenaScratch) SetArena(a *tensor.Arena) { s.arena = a }

// alloc returns a zero-filled per-batch tensor (tensor.New semantics).
func (s *arenaScratch) alloc(shape ...int) *tensor.Tensor {
	if s.arena != nil {
		return s.arena.Get(shape...)
	}
	return tensor.New(shape...)
}

// allocUninit returns a per-batch tensor whose contents are unspecified.
// Callers must overwrite every element before reading any.
func (s *arenaScratch) allocUninit(shape ...int) *tensor.Tensor {
	if s.arena != nil {
		return s.arena.GetUninit(shape...)
	}
	return tensor.New(shape...)
}
