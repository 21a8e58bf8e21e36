// Package seeds derives every pseudo-random stream of the module from one Key,
// so how a stream is keyed is decided once (§IV-C1: "seeded PRNGs for perfect
// repeatability"). Each tag keeps its call site's former expression (DESIGN.md §2.1).
package seeds

import (
	"hash/fnv"
	"math/rand"
)

// Rand is the generator of every stream.
type Rand = rand.Rand

// Tag names a stream; the comment after each tag lists the Key fields it reads.
type Tag uint8

const (
	Skew      Tag = iota // clock offsets and drifts: Seed (platform)
	Geometric            // node placement of the geometric topology: Seed (platform)
	AgentSeed            // an SD agent's seed: Seed (platform), ID (node)
	HybridZC             // a hybrid agent's zeroconf part: Seed (agent)
	HybridDir            // a hybrid agent's directory part: Seed (agent)
	Agent                // an SD agent's response delays: Seed (agent)
	Netem                // a netem node's back-off, loss, jitter and rule draws: Seed (platform), ID (node)
	Factor               // a factor's level order: Seed (experiment), ID (factor), Index (position)
	Order                // a randomized plan's run order: Seed (experiment)
	Blocks               // run order inside the blocks of a blocked plan: Seed (experiment)
	Run                  // the run seed journaled per run: Seed (experiment), Index (run id)
	Fault                // a fault injection's direction and rule draws: Seed (randomseed)
	Timing               // a timed fault's start offset: Seed (randomseed)
	Pairs                // traffic's initial pairs: Seed (random_seed)
	Switch               // traffic's pair switches: Seed (random_switch_seed)
	Failpoint            // a failpoint site's draws: Seed (registry), ID (site)
	Lease                // a lease's heartbeat jitter: ID (session)
	Retry                // an XML-RPC client's retry back-off: Seed (RetryPolicy.Seed)
)

// DefaultRandomSeed and DefaultSwitchSeed stand in for absent seed parameters.
const DefaultRandomSeed, DefaultSwitchSeed = 1, 0

var xor = [...]int64{Skew: 0x51c3, Geometric: 0x6e0, HybridZC: 0x2c, HybridDir: 0xd1,
	Order: 0x5DEECE66D, Blocks: 0x1B10C4ED}

// Key identifies one stream.
type Key struct {
	Tag         Tag
	Seed, Index int64
	ID          string
}

// Derive returns the seed of the stream k names.
func Derive(k Key) int64 {
	switch k.Tag {
	case Skew, Geometric, HybridZC, HybridDir, Order, Blocks:
		return k.Seed ^ xor[k.Tag]
	case AgentSeed:
		return k.Seed ^ int64(len(k.ID))*7919 ^ int64(k.ID[0])<<13 ^ int64(k.ID[len(k.ID)-1])
	case Netem, Failpoint:
		return k.Seed ^ int64(fnv1a(k.ID))
	case Lease:
		return int64(fnv1a(k.ID))
	case Factor:
		return k.Seed*31 + k.Index + int64(len(k.ID))
	case Run:
		h := uint64(k.Seed)*0x9E3779B97F4A7C15 ^ (uint64(k.Index) + 0x632BE59BD9B4E019)
		return int64(h * 0xD1B54A32D192ED03)
	case Retry:
		if k.Seed == 0 {
			return 1
		}
	}
	return k.Seed
}

// Rand returns a new generator of the stream, inlined to stay on the stack.
func (k Key) Rand() *Rand { return rand.New(k.source()) }

func (k Key) source() rand.Source { return rand.NewSource(Derive(k)) }

func fnv1a(s string) uint64 { h := fnv.New64a(); h.Write([]byte(s)); return h.Sum64() }
