// Package shard builds the K-sharded model the benchmark ladder measures
// (bench/ladder.go, rung 7). Sharding itself is core's chunk-ownership
// rule, core.Config.Shards; this package only fixes the serving path such
// models take, and its tests hold the K-invariance contracts.
package shard

import (
	"kdesel/internal/core"
	"kdesel/internal/table"
)

// Config configures Build; Shards is K.
type Config = core.Config

// Build builds a model over tab and serves it without the coalescer
// (MaxBatch 1), the path registry.AdmitSharded gives sharded models.
func Build(tab *table.Table, cfg Config) (*core.Server, error) {
	est, err := core.Build(tab, cfg)
	if err != nil {
		return nil, err
	}
	return core.NewServer(est, core.ServeConfig{MaxBatch: 1}), nil
}
