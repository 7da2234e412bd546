package models

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"cbnet/internal/nn"
)

// checkpoint is the on-disk format: parameter names in sorted order and
// their flat values, so equal weights make equal files. Params, a name →
// values map whose gob bytes follow map order, is the older format; it is
// still read, never written. Shapes are re-derived from the
// freshly-constructed model at load time, so a checkpoint only loads into
// an architecture that matches it.
type checkpoint struct {
	Names  []string
	Values [][]float32
	Params map[string][]float32
}

// collectParams gathers parameters from the nets, rejecting duplicates.
func collectParams(nets []*nn.Sequential) (map[string]*nn.Param, error) {
	out := make(map[string]*nn.Param)
	for _, net := range nets {
		for _, p := range net.Params() {
			if _, dup := out[p.Name]; dup {
				return nil, fmt.Errorf("models: duplicate parameter name %q across nets", p.Name)
			}
			out[p.Name] = p
		}
	}
	return out, nil
}

// SaveParams writes all parameters of the given networks as a gob stream.
func SaveParams(w io.Writer, nets ...*nn.Sequential) error {
	params, err := collectParams(nets)
	if err != nil {
		return err
	}
	ck := checkpoint{Names: slices.Collect(maps.Keys(params))}
	slices.Sort(ck.Names)
	for _, name := range ck.Names {
		ck.Values = append(ck.Values, params[name].Value.Data)
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadParams restores parameters saved by SaveParams into the networks.
// Every parameter of every net must be present with a matching size, and
// unknown checkpoint entries are an error — silent partial loads hide
// architecture drift.
func LoadParams(r io.Reader, nets ...*nn.Sequential) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("models: decoding checkpoint: %w", err)
	}
	if len(ck.Names) != len(ck.Values) {
		return fmt.Errorf("models: checkpoint has %d names for %d parameters", len(ck.Names), len(ck.Values))
	}
	if ck.Names != nil {
		ck.Params = make(map[string][]float32, len(ck.Names))
		for i, name := range ck.Names {
			ck.Params[name] = ck.Values[i]
		}
	}
	params, err := collectParams(nets)
	if err != nil {
		return err
	}
	for name, p := range params {
		vals, ok := ck.Params[name]
		if !ok {
			return fmt.Errorf("models: checkpoint missing parameter %q", name)
		}
		if len(vals) != p.Value.Len() {
			return fmt.Errorf("models: parameter %q has %d values, model wants %d", name, len(vals), p.Value.Len())
		}
		copy(p.Value.Data, vals)
		p.Touch()
	}
	for name := range ck.Params {
		if _, ok := params[name]; !ok {
			return fmt.Errorf("models: checkpoint has unknown parameter %q", name)
		}
	}
	return nil
}

// SaveFile writes the networks' parameters to path.
func SaveFile(path string, nets ...*nn.Sequential) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveParams(f, nets...); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile restores the networks' parameters from path.
func LoadFile(path string, nets ...*nn.Sequential) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadParams(f, nets...)
}

// SaveBranchy writes a BranchyNet's three segments to path.
func SaveBranchy(path string, b *BranchyNet) error {
	return SaveFile(path, b.Stem, b.Branch, b.Trunk)
}

// LoadBranchy restores a BranchyNet's three segments from path.
func LoadBranchy(path string, b *BranchyNet) error {
	return LoadFile(path, b.Stem, b.Branch, b.Trunk)
}
