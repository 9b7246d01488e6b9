package core

// Weight snapshot export and serving-machine rebuild — the host-side glue
// for train-while-serve. The trainer's crossbars mutate continuously, and
// inference replicas run the trainer's own engines over its programmed
// arrays, so a replica of the trainer would see torn weights mid-update. The
// online supervisor instead exports the float masters to a host network,
// persists it via checkpoint v2, and rebuilds an immutable serving machine
// from that snapshot: candidate versions are frozen at export time by
// construction.

import (
	"errors"
	"fmt"

	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
)

// ExportWeights copies the accelerator's float master weights (the host
// shadow of the programmed arrays — the paper's Copy_to_CPU applied to
// weights) into net's parameters, which must match the loaded topology in
// order and shape. Shapes are validated before anything is written, so on
// error net is untouched.
func (a *Accelerator) ExportWeights(net *nn.Network) error {
	if !a.loaded {
		return errors.New("core: Export_weights before Weight_load")
	}
	if net == nil {
		return errors.New("core: Export_weights into a nil network")
	}
	var masters []*tensor.Tensor
	for _, e := range a.engines {
		masters = append(masters, e.weights()...)
	}
	params := net.Params()
	if len(masters) != len(params) {
		return fmt.Errorf("core: accelerator has %d weight tensors, network has %d parameters", len(masters), len(params))
	}
	for i, p := range params {
		want, got := p.Value.Shape(), masters[i].Shape()
		if len(want) != len(got) {
			return fmt.Errorf("core: parameter %s has rank %d, accelerator tensor has rank %d", p.Name, len(want), len(got))
		}
		for d := range want {
			if want[d] != got[d] {
				return fmt.Errorf("core: parameter %s dim %d is %d, accelerator tensor has %d", p.Name, d, want[d], got[d])
			}
		}
	}
	for i, p := range params {
		copy(p.Value.Data(), masters[i].Data())
	}
	return nil
}

// NewFromSnapshot assembles a ready-to-serve accelerator from a weight
// snapshot: Topology_set then Weight_load from net, on ideal (fault-free)
// arrays. The result shares nothing with the machine the snapshot was
// exported from, which is what makes hot-swapping onto it safe while the
// original keeps training.
func NewFromSnapshot(model energy.Model, spec networks.Spec, lambda float64, net *nn.Network) (*Accelerator, error) {
	if net == nil {
		return nil, errors.New("core: NewFromSnapshot requires a snapshot network")
	}
	a := New(model)
	if err := a.TopologySet(spec, lambda); err != nil {
		return nil, err
	}
	if err := a.WeightLoad(net, nil); err != nil {
		return nil, err
	}
	return a, nil
}
