#include "charmm/decomposition.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <optional>

#include "charmm/ldb.hpp"
#include "charmm/spatial.hpp"
#include "fft/parallel_fft.hpp"
#include "md/bonded.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "util/flatpack.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace repro::charmm {

namespace {

using util::Vec3;

// Point-to-point tag spaces of the decomposition schedules. They must stay
// below mpi::Comm's collective tag base (1 << 20) and clear of the CMPI
// middleware's fixed tags (9900..9902, 9990+step); tags are unique per
// step and operation so a jitter-delayed packet from step k can never
// match a receive posted in step k+1.
constexpr int kScheduleTagBase = 1 << 18;
// Twelve tag slots per step: ops 0-4 are fold/expand (force) or
// reduce/exchange (task) or migrate/ghost/position-halo/force-halo/
// pme-gather (spatial); ops 5-10 are the spatial pencil-PME schedule
// (charge plane exchange, X->Y and Y->Z forward transposes, Z->Y and
// Y->X backward transposes, potential plane exchange); op 11 is the
// work-unit handoff of the measurement-driven load balancer.
constexpr int kScheduleTagsPerStep = 12;
// The PME group middleware draws its own fresh tag per operation from
// here up to the collective base.
constexpr int kGroupTagBase = 1 << 19;

int schedule_tag(int step, int op) {
  return kScheduleTagBase + kScheduleTagsPerStep * step + op;
}

void check_tag_budget(const CharmmConfig& config) {
  REPRO_REQUIRE(
      schedule_tag(config.nsteps, 0) <= kGroupTagBase,
      "decomposition schedule tags would overflow into the group tag space");
}

// --------------------------------------------------------------------------
// Per-rank physics shared by every decomposition: the rank's state and the
// phases of CHARMM's energy routine, each under its phase label with its
// modeled compute charge. A decomposition's run() calls these in its own
// order and keeps only its message schedule — barriers, reductions, halos,
// the PME variant and the load balancer's bookkeeping. The atom and force
// decompositions share one schedule up to their force reduction
// (run_replicated below).
// --------------------------------------------------------------------------

// The force-field terms one rank evaluates.
struct TermShare {
  // Replicated data: slice `shard` of `nshards` of every term list.
  int shard = 0;
  int nshards = 1;
  // Force decomposition: non-bonded pair (i, j) belongs to shard
  // (block_of[i] + block_of[j]) mod nshards.
  const std::vector<int>* block_of = nullptr;
  // Spatial: the terms whose first atom is owned, over a pair list of the
  // owned rows against `candidates` (owned atoms plus ghosts);
  // `owned_excl` counts the exclusion pairs of owned atoms.
  const std::vector<std::uint8_t>* owned_mask = nullptr;
  const std::vector<int>* candidates = nullptr;
  std::size_t owned_excl = 0;
};

md::NonbondedOptions nonbonded_options(const md::Topology& topo,
                                       const CharmmConfig& config) {
  md::NonbondedOptions nb;
  nb.cutoff = config.cutoff;
  nb.switch_on = config.switch_on;
  nb.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                           : md::NonbondedOptions::Elec::kShift;
  nb.beta = config.pme.beta;
  nb.kernel = config.kernel;
  nb.table = md::build_pair_table(topo);
  return nb;
}

class RankPhysics {
 public:
  // Built first, so the pair table is allocated ahead of the per-atom
  // arrays: host peak RSS of back-to-back runs in one process (a p=128
  // spatial run, then its p=1 reference) depends on the heap layout.
  const md::NonbondedOptions nb;
  const md::Topology& topo;
  const md::Box& box;
  // Full-size arrays. Replicated decompositions keep every row current;
  // spatial keeps its owned rows (positions and velocities) and its
  // ghosts' positions.
  std::vector<Vec3> pos;
  std::vector<Vec3> vel;
  std::vector<Vec3> forces;
  // The atoms this rank integrates, ascending, when it owns a subset
  // (spatial); a replicated rank integrates every atom.
  std::optional<std::vector<int>> owned;
  md::NeighborList nbl;

  RankPhysics(const sysbuild::BuiltSystem& sys, const CharmmConfig& config,
              mpi::Comm& comm)
      : nb(nonbonded_options(sys.topo, config)),
        topo(sys.topo),
        box(sys.box),
        pos(sys.positions),
        forces(static_cast<std::size_t>(topo.natoms())),
        nbl(config.cutoff, config.skin),
        config_(config),
        comm_(comm) {
    // Velocities are assigned replicated, so every decomposition starts
    // from the sequential run's state bit for bit.
    md::assign_velocities(topo, config.temperature_k, config.seed, vel);
  }

  // PME's compute charge: its flops at the cost model's rate, booked to
  // whatever component is active.
  std::function<void(double)> flop_charge() {
    return [this](double flops) {
      comm_.compute(flops * config_.cost.seconds_per_flop);
    };
  }

  void zero_forces() { std::fill(forces.begin(), forces.end(), Vec3{}); }

  void build_list(const TermShare& share) {
    perf::PhaseScope phase(comm_.recorder(), "list_build");
    if (share.owned_mask != nullptr) {
      nbl.build_subset(topo, box, pos, *share.candidates, *share.owned_mask);
    } else {
      nbl.build(topo, box, pos);
    }
    comm_.compute(config_.cost.seconds_per_list_pair *
                  static_cast<double>(nbl.npairs()) * 2.0);
  }

  // The classic routine's terms of this rank's share — bonded, non-bonded
  // and, with PME, the real-space Ewald corrections plus the self energy
  // (rank 0 only) — accumulated into `forces` and `energy`. Returns the
  // seconds charged to the bonded, nonbonded and ewald_corr phases.
  std::array<double, 3> classic_terms(const TermShare& share,
                                      md::EnergyTerms& energy) {
    perf::RankRecorder& rec = comm_.recorder();
    const CostModel& cost = config_.cost;
    std::array<double, 3> sec{};
    {
      perf::PhaseScope phase(rec, "bonded");
      const md::BondedWork bw =
          share.owned_mask != nullptr
              ? md::bonded_energy_owned(topo, box, pos, *share.owned_mask,
                                        forces, energy)
              : md::bonded_energy(topo, box, pos, forces, energy,
                                  share.shard, share.nshards);
      sec[0] = cost.seconds_per_bonded_term * static_cast<double>(bw.total());
      comm_.compute(sec[0]);
    }
    {
      perf::PhaseScope phase(rec, "nonbonded");
      const md::NonbondedWork nw =
          share.block_of != nullptr
              ? md::nonbonded_energy_blocked(topo, box, pos, nbl, nb,
                                             *share.block_of, share.shard,
                                             share.nshards, forces, energy)
              : md::nonbonded_energy(topo, box, pos, nbl, nb, forces,
                                     energy, share.shard, share.nshards);
      sec[1] = cost.seconds_per_pair * static_cast<double>(nw.pairs_listed);
      comm_.compute(sec[1]);
    }
    if (!config_.use_pme) return sec;
    {
      // Real-space corrections stay in the classic (time-domain) part.
      perf::PhaseScope phase(rec, "ewald_corr");
      const double beta = config_.pme.beta;
      if (share.owned_mask != nullptr) {
        energy.ewald_excl += pme::ewald_exclusion_correction_owned(
            topo, box, pos, *share.owned_mask, beta, forces);
        sec[2] = cost.seconds_per_bonded_term *
                 static_cast<double>(share.owned_excl);
      } else {
        energy.ewald_excl += pme::ewald_exclusion_correction(
            topo, box, pos, beta, forces, share.shard, share.nshards);
        sec[2] = cost.seconds_per_bonded_term *
                 static_cast<double>(topo.excluded_pairs().size()) /
                 static_cast<double>(share.nshards);
      }
      comm_.compute(sec[2]);
    }
    if (comm_.rank() == 0) {
      energy.ewald_self += pme::ewald_self_energy(topo, config_.pme.beta);
    }
    return sec;
  }

  // Integrates the owned atoms — outside the measured energy routine, as
  // the paper times it — and closes the step.
  void end_step() {
    perf::RankRecorder& rec = comm_.recorder();
    rec.set_component(perf::Component::kOther);
    {
      perf::PhaseScope phase(rec, "integrate");
      comm_.compute(config_.cost.seconds_per_integration_atom *
                    static_cast<double>(owned ? owned->size() : pos.size()));
    }
    const double kick = config_.dt_ps * units::kForceToAccel;
    for_each_owned([&](int i) {
      const auto ui = static_cast<std::size_t>(i);
      vel[ui] += forces[ui] * (kick / topo.atom(i).mass);
      pos[ui] += vel[ui] * config_.dt_ps;
    });
    rec.end_step();
  }

  // Sum of the owned atoms' coordinates.
  double position_checksum() const {
    double sum = 0.0;
    for_each_owned([&](int i) {
      const Vec3& r = pos[static_cast<std::size_t>(i)];
      sum += r.x + r.y + r.z;
    });
    return sum;
  }

 private:
  template <typename F>
  void for_each_owned(F&& f) const {
    if (owned) {
      for (int i : *owned) f(i);
    } else {
      for (int i = 0; i < topo.natoms(); ++i) f(i);
    }
  }

  const CharmmConfig& config_;
  mpi::Comm& comm_;
};

// Comm-wide sum of the energy terms. Every rank issues it, so the
// collective tag counters stay aligned.
void global_sum_energy(middleware::Middleware& mw, md::EnergyTerms& energy) {
  std::array<double, md::EnergyTerms::kCount> earr = energy.to_array();
  mw.global_sum(earr.data(), earr.size());
  energy = md::EnergyTerms::from_array(earr);
}

// The step of the replicated-force decompositions (atom, force): every
// rank evaluates its share of the classic terms, then the slab PME, each
// behind CHARMM's coherency barrier; `combine(step, forces, energy)` —
// the decomposition's own reduction — leaves every rank with the summed
// forces and energy terms, and every rank integrates every atom.
RankRunResult run_replicated(
    const sysbuild::BuiltSystem& sys, const CharmmConfig& config,
    middleware::Middleware& mw, const TermShare& share,
    const std::function<void(int, std::vector<Vec3>&, md::EnergyTerms&)>&
        combine) {
  mpi::Comm& comm = mw.comm();
  perf::RankRecorder& rec = comm.recorder();
  RankPhysics phys(sys, config, comm);
  pme::ParallelPme ppme(config.pme, sys.box, mw, phys.flop_charge());

  RankRunResult result;
  for (int step = 0; step < config.nsteps; ++step) {
    // ------------------------------------------------ classic routine --
    rec.set_component(perf::Component::kClassic);
    // Coherency barrier at energy entry (CHARMM synchronizes its parallel
    // energy call).
    if (config.coherency_barriers) mw.synchronize();
    if (step % config.list_rebuild_interval == 0) phys.build_list(share);
    result.pairs_in_list = phys.nbl.npairs();

    phys.zero_forces();
    md::EnergyTerms energy;
    phys.classic_terms(share, energy);

    if (config.use_pme) {
      // -------------------------------------------------- PME routine --
      rec.set_component(perf::Component::kPme);
      // Coherency point before entering the frequency-domain phase.
      if (config.coherency_barriers) mw.synchronize();
      {
        perf::PhaseScope phase(rec, "pme_recip");
        energy.ewald_recip += ppme.reciprocal(sys.topo, phys.pos,
                                              phys.forces);
      }
      rec.set_component(perf::Component::kClassic);
    }

    // CHARMM synchronizes before combining, which is where load imbalance
    // lands.
    if (config.coherency_barriers) mw.synchronize();
    combine(step, phys.forces, energy);
    result.last_energy = energy;
    phys.end_step();
  }
  result.position_checksum = phys.position_checksum();
  return result;
}

// --------------------------------------------------------------------------
// Replicated-data atom decomposition — the paper's CHARMM parallelization
// and the reference every golden file pins.
// --------------------------------------------------------------------------
class AtomReplicatedDecomposition final : public Decomposition {
 public:
  const char* name() const override { return "atom"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw) const override {
    mpi::Comm& comm = mw.comm();
    std::vector<double> flat;
    // The all-to-all collective that ends the classic energy calculation:
    // global force reduction plus the (small) energy reduction. The
    // global sum broadcasts bitwise-identical forces, so trajectories
    // never diverge across ranks.
    return run_replicated(
        sys, config, mw, TermShare{comm.rank(), comm.size()},
        [&](int, std::vector<Vec3>& forces, md::EnergyTerms& energy) {
          perf::PhaseScope phase(comm.recorder(), "force_reduce");
          util::flatten(forces, flat);
          mw.global_sum(flat.data(), flat.size());
          util::unflatten(flat, forces);
          global_sum_energy(mw, energy);
        });
  }
};

// --------------------------------------------------------------------------
// Force decomposition (Plimpton-style fold/expand).
//
// Atoms are split into p contiguous blocks; pair (i, j) of the interaction
// matrix belongs to rank (block(i) + block(j)) mod p. Each rank therefore
// produces force partials scattered over the whole array, but the
// reduction no longer needs a full-vector allreduce: a *fold* ships every
// foreign block's partial to the block's owner (a reduce-scatter, 24·N/p
// bytes per message) and an *expand* allgathers the owned totals. The
// per-rank reduction volume shrinks from 2·log2(p)·24N (tree allreduce)
// to 2·(p-1)·24N/p.
// --------------------------------------------------------------------------
class ForceDecomposition final : public Decomposition {
 public:
  const char* name() const override { return "force"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw) const override {
    check_tag_budget(config);
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    const auto natoms = static_cast<std::size_t>(sys.topo.natoms());

    // Contiguous atom blocks, one per rank (front-loaded remainder, the
    // same partition shape the slab FFT uses).
    const fft::SlabPartition blocks(natoms, p);
    std::vector<int> block_of(natoms);
    for (int b = 0; b < p; ++b) {
      for (std::size_t i = blocks.begin(b); i < blocks.end(b); ++i) {
        block_of[i] = b;
      }
    }

    std::vector<double> flat;
    std::vector<double> scratch;
    return run_replicated(
        sys, config, mw, TermShare{comm.rank(), p, &block_of},
        [&](int step, std::vector<Vec3>& forces, md::EnergyTerms& energy) {
          util::flatten(forces, flat);
          fold_expand(comm, blocks, flat, scratch, step);
          util::unflatten(flat, forces);
          perf::PhaseScope phase(comm.recorder(), "energy_reduce");
          global_sum_energy(mw, energy);
        });
  }

 private:
  // Fold (reduce-scatter of per-block partials to their owners) followed
  // by expand (allgather of the owned totals). Receives accumulate in a
  // fixed source order, so the summed forces are bit-identical on every
  // rerun and every rank ends with the same full array.
  static void fold_expand(mpi::Comm& comm, const fft::SlabPartition& blocks,
                          std::vector<double>& flat,
                          std::vector<double>& scratch, int step) {
    const int p = comm.size();
    if (p == 1) return;
    const int me = comm.rank();
    const int fold_tag = schedule_tag(step, 0);
    const int expand_tag = schedule_tag(step, 1);
    const std::size_t my_begin = 3 * blocks.begin(me);
    const std::size_t my_count = 3 * blocks.count(me);
    perf::RankRecorder& rec = comm.recorder();
    {
      perf::PhaseScope phase(rec, "fold");
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        comm.send(dst, fold_tag, flat.data() + 3 * blocks.begin(dst),
                  3 * blocks.count(dst) * sizeof(double), /*exchange=*/true);
      }
      scratch.resize(my_count);
      for (int k = 1; k < p; ++k) {
        const int src = (me - k + p) % p;
        comm.recv(src, fold_tag, scratch.data(),
                  my_count * sizeof(double));
        for (std::size_t i = 0; i < my_count; ++i) {
          flat[my_begin + i] += scratch[i];
        }
      }
    }
    {
      perf::PhaseScope phase(rec, "expand");
      for (int k = 1; k < p; ++k) {
        const int dst = (me + k) % p;
        comm.send(dst, expand_tag, flat.data() + my_begin,
                  my_count * sizeof(double), /*exchange=*/true);
      }
      for (int k = 1; k < p; ++k) {
        const int src = (me - k + p) % p;
        comm.recv(src, expand_tag, flat.data() + 3 * blocks.begin(src),
                  3 * blocks.count(src) * sizeof(double));
      }
    }
  }
};

// --------------------------------------------------------------------------
// Task decoupling: dedicated PME ranks.
//
// The last m ranks run only the reciprocal-space PME work (over their own
// m-slab FFT decomposition, presented through a group-restricted
// middleware); the first q = p - m ranks run only the classic routine,
// sharded q ways. The two components — which the default schedule
// serializes through coherency barriers — overlap in virtual time within
// each step. A combine joins the halves: each group binomial-reduces its
// packed forces+energies to its group root, the PME root ships its total
// to rank 0, and a comm-wide broadcast replicates the sum so every rank
// integrates identical forces.
// --------------------------------------------------------------------------
class TaskPmeDecomposition final : public Decomposition {
 public:
  explicit TaskPmeDecomposition(const DecompSpec& spec) : spec_(spec) {}

  const char* name() const override { return "task"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // Degenerate split: nothing to decouple, run the reference program.
      return AtomReplicatedDecomposition{}.run(sys, config, mw);
    }
    REPRO_REQUIRE(config.use_pme,
                  "task decoupling dedicates ranks to PME; enable use_pme "
                  "or pick another decomposition");
    check_tag_budget(config);
    const int m = resolved_pme_ranks(spec_, p);
    const int q = p - m;
    const int me = comm.rank();
    const bool is_pme = me >= q;
    perf::RankRecorder& rec = comm.recorder();

    RankPhysics phys(sys, config, comm);
    const TermShare share{me, q};
    std::vector<double> flat;
    std::vector<double> combined;
    std::vector<double> scratch;

    // The PME group's middleware presents ranks [q, p) as a communicator
    // of size m; the slab FFT and spreading inside ParallelPme see only
    // group coordinates. Classic ranks never construct PME machinery.
    std::optional<GroupMiddleware> gmw;
    std::optional<pme::ParallelPme> ppme;
    if (is_pme) {
      gmw.emplace(comm, q, m);
      ppme.emplace(config.pme, sys.box, *gmw, phys.flop_charge());
    }

    const std::size_t nterms = md::EnergyTerms::kCount;
    RankRunResult result;
    for (int step = 0; step < config.nsteps; ++step) {
      rec.set_component(is_pme ? perf::Component::kPme
                               : perf::Component::kClassic);
      // Coherency barrier at energy entry, as in the default schedule —
      // the only synchronization until the two task groups join below.
      if (config.coherency_barriers) mw.synchronize();

      phys.zero_forces();
      md::EnergyTerms energy;
      if (is_pme) {
        perf::PhaseScope phase(rec, "pme_recip");
        energy.ewald_recip += ppme->reciprocal(sys.topo, phys.pos,
                                               phys.forces);
      } else {
        if (step % config.list_rebuild_interval == 0) phys.build_list(share);
        result.pairs_in_list = phys.nbl.npairs();
        phys.classic_terms(share, energy);
      }

      // Join point: the groups must combine their halves anyway, so the
      // coherency barrier here is where the classic/PME load imbalance
      // lands (as synchronization), mirroring the default schedule's
      // pre-reduction barrier.
      if (config.coherency_barriers) mw.synchronize();

      // Pack forces + energy terms into one buffer so the combine is a
      // single message chain instead of two.
      util::flatten(phys.forces, flat);
      combined.resize(flat.size() + nterms);
      std::memcpy(combined.data(), flat.data(),
                  flat.size() * sizeof(double));
      const std::array<double, md::EnergyTerms::kCount> earr =
          energy.to_array();
      std::memcpy(combined.data() + flat.size(), earr.data(),
                  nterms * sizeof(double));

      // Group-internal binomial reduce to the group root (rank 0 for the
      // classic group, rank q for the PME group) on schedule tags, so the
      // groups' different programs cannot misalign the comm-wide
      // collective tag counters.
      if (is_pme) {
        perf::PhaseScope phase(rec, "pme_group_reduce");
        comm.reduce_sum(combined.data(), combined.size(), 0, {q, m},
                        schedule_tag(step, 1));
      } else {
        perf::PhaseScope phase(rec, "classic_group_reduce");
        comm.reduce_sum(combined.data(), combined.size(), 0, {0, q},
                        schedule_tag(step, 0));
      }

      // The PME root ships its group's total to rank 0, which owns the
      // grand total.
      const std::size_t bytes = combined.size() * sizeof(double);
      if (me == q) {
        perf::PhaseScope phase(rec, "root_exchange");
        comm.send(0, schedule_tag(step, 2), combined.data(), bytes);
      } else if (me == 0) {
        perf::PhaseScope phase(rec, "root_exchange");
        scratch.resize(combined.size());
        comm.recv(q, schedule_tag(step, 2), scratch.data(), bytes);
        for (std::size_t i = 0; i < combined.size(); ++i) {
          combined[i] += scratch[i];
        }
      }

      // Comm-wide broadcast of the grand total — every rank participates,
      // keeping collective tags aligned and forces bit-identical.
      {
        perf::PhaseScope phase(rec, "result_bcast");
        mw.broadcast(combined.data(), bytes, 0);
      }
      std::memcpy(flat.data(), combined.data(),
                  flat.size() * sizeof(double));
      util::unflatten(flat, phys.forces);
      std::array<double, md::EnergyTerms::kCount> total_earr{};
      std::memcpy(total_earr.data(), combined.data() + flat.size(),
                  nterms * sizeof(double));
      result.last_energy = md::EnergyTerms::from_array(total_earr);
      phys.end_step();
    }
    result.position_checksum = phys.position_checksum();
    return result;
  }

 private:
  // Middleware over the contiguous rank group [base, base + size): rank()
  // and size() report group coordinates, and transpose() is mpi::Comm's
  // pairwise all-to-all over the group on tags from a private sequence
  // (kGroupTagBase..) instead of the comm-wide collective counter, so the
  // other group's program never has to participate. ParallelPme, its only
  // user, needs no other collective.
  class GroupMiddleware final : public middleware::Middleware {
   public:
    GroupMiddleware(mpi::Comm& comm, int base, int size)
        : Middleware(comm), base_(base), size_(size) {}

    int rank() const override { return comm_.rank() - base_; }
    int size() const override { return size_; }

    void transpose(const void* send,
                   const std::vector<std::size_t>& send_counts,
                   const std::vector<std::size_t>& send_displs, void* recv,
                   const std::vector<std::size_t>& recv_counts,
                   const std::vector<std::size_t>& recv_displs) override {
      perf::PhaseScope phase(comm_.recorder(), "pme_transpose");
      comm_.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                      recv_displs, {base_, size_},
                      size_ > 1 ? next_tag() : 0);
    }

    void global_sum(double*, std::size_t) override { unsupported(); }
    void synchronize() override { unsupported(); }
    void broadcast(void*, std::size_t, int) override { unsupported(); }

   private:
    [[noreturn]] static void unsupported() {
      REPRO_UNREACHABLE("the PME group middleware only transposes");
    }

    int next_tag() {
      REPRO_REQUIRE(kGroupTagBase + static_cast<int>(seq_) <
                        mpi::Comm::kCollectiveTagBase,
                    "group tag space exhausted; tags would alias");
      return kGroupTagBase + static_cast<int>(seq_++);
    }

    int base_;
    int size_;
    unsigned seq_ = 0;
  };

  DecompSpec spec_;
};

// --------------------------------------------------------------------------
// Spatial domain decomposition with halo exchange.
//
// Ranks own cells of a 3-D grid (charmm/spatial.hpp); each rank keeps
// current positions/velocities only for its owned atoms plus position
// ghosts of the border cells of its ≤26 neighboring ranks. Per step the
// schedule is: position halo out to the neighbors, owned-row compute
// (bonded/non-bonded/exclusion terms belong to the owner of their first
// atom), force halo folding ghost-row partials back to the owners, and a
// 9-double energy allreduce. At every neighbor-list rebuild after the
// first, atoms that crossed into a foreign cell migrate (id+pos+vel) to
// the new owner and the ghost sets are renegotiated; the epoch is frozen
// in between, which is what makes the halo schedule — and the analytic
// predictor's message/byte counts — exactly reproducible.
//
// PME keeps its full-communication structure (the slab FFT wants every
// position): a pairwise all-to-all position gather precedes the
// reciprocal sum, and the reciprocal forces are combined with one
// full-vector allreduce, of which each rank applies only its owned rows.
//
// With ldb != off the unit of work is a migratable cell block (a work
// unit): the grid is overdecomposed into units ≫ ranks once at startup,
// and at every rebuild after the first the measured per-unit costs and
// per-rank speeds are allreduced, every rank recomputes the same
// unit→rank map, and moved units hand their atoms to the new owner
// before the ghost renegotiation. With ldb=off none of this machinery
// runs and the schedule is byte-identical to the paragraphs above.
// --------------------------------------------------------------------------
void append_xyz(std::vector<double>& b, const Vec3& v) {
  b.push_back(v.x);
  b.push_back(v.y);
  b.push_back(v.z);
}

class SpatialDecomposition final : public Decomposition {
 public:
  explicit SpatialDecomposition(const DecompSpec& spec) : spec_(spec) {}

  const char* name() const override { return "spatial"; }

  RankRunResult run(const sysbuild::BuiltSystem& sys,
                    const CharmmConfig& config,
                    middleware::Middleware& mw) const override {
    mpi::Comm& comm = mw.comm();
    const int p = comm.size();
    if (p == 1) {
      // One domain is the whole box: run the reference program so the
      // sequential trajectory (and its goldens) is preserved to the byte.
      return AtomReplicatedDecomposition{}.run(sys, config, mw);
    }
    check_tag_budget(config);
    perf::RankRecorder& rec = comm.recorder();
    const int me = comm.rank();
    const CostModel& cost = config.cost;
    const md::Topology& topo = sys.topo;
    const md::Box& box = sys.box;
    const auto natoms = static_cast<std::size_t>(topo.natoms());

    SpatialLayout layout = make_spatial_layout(
        spec_, box, config.cutoff + config.skin, p, &sys.positions);

    // Work-unit overdecomposition (ldb != off). The cell→unit grid is
    // frozen for the run; only the unit→rank map migrates. The cold-start
    // map replaces the packer's cell→rank assignment with a pair-cost
    // weighted one; every later epoch's layout is derived from the map.
    const bool ldb_on = spec_.ldb != LdbPolicy::kOff;
    std::optional<UnitGrid> units;
    std::vector<int> unit_rank;
    std::uint64_t unit_map_hash = 0;
    std::size_t units_moved = 0;
    auto hash_unit_map = [&]() {
      unit_map_hash = util::hash_combine(
          unit_map_hash, util::fnv1a_bytes(unit_rank.data(),
                                           unit_rank.size() * sizeof(int)));
    };
    if (ldb_on) {
      units.emplace(make_unit_grid(
          layout, resolved_units(spec_, p, layout.ncells()), sys.positions));
      unit_rank = initial_unit_map(*units, p);
      layout = layout_from_units(layout, *units, unit_rank);
      hash_unit_map();
    }
    std::vector<int> nbrs =
        layout.rank_neighbors[static_cast<std::size_t>(me)];
    std::size_t nn = nbrs.size();

    RankPhysics phys(sys, config, comm);
    std::vector<Vec3>& pos = phys.pos;
    std::vector<Vec3>& vel = phys.vel;
    std::vector<Vec3>& forces = phys.forces;
    std::vector<Vec3> recip_forces;
    std::vector<double> flat;

    // Slab or pencil PME. Neither constructor communicates or charges
    // compute, so wrapping the slab machinery in an optional leaves the
    // slab path's schedule byte-identical to the unconditional build.
    const std::function<void(double)> charge_flops = phys.flop_charge();
    const bool pencil =
        config.use_pme && spec_.pme_mode == PmeMode::kPencil;
    std::optional<pme::ParallelPme> ppme;
    std::optional<pme::PencilPme> pencil_pme;
    int pencil_py = 0;
    int pencil_pz = 0;
    if (pencil) {
      const auto [py, pz] =
          resolved_pencil_grid(spec_, p, config.pme.ny, config.pme.nz);
      pencil_py = py;
      pencil_pz = pz;
      pencil_pme.emplace(config.pme, box, comm, py, pz,
                         make_pme_regions(layout, config.pme, config.skin),
                         charge_flops);
    } else {
      ppme.emplace(config.pme, box, mw, charge_flops);
    }

    // Epoch state, frozen between rebuilds.
    std::vector<int>& owned = phys.owned.emplace();
    std::vector<std::uint8_t> owned_mask(natoms, 0);
    std::vector<std::vector<int>> send_ids(nn);  // to nbrs[k], sorted
    std::vector<std::vector<int>> recv_ids(nn);  // ghosts from nbrs[k]
    std::vector<int> candidates;
    TermShare share;
    share.owned_mask = &owned_mask;
    share.candidates = &candidates;
    std::size_t migrated = 0;

    // Reused wire buffers (payloads are doubles; atom ids are exact in a
    // double far beyond any system size here).
    std::vector<std::vector<double>> out(nn);
    std::vector<double> in(1 + 7 * natoms);
    std::vector<double> gather_buf;
    std::vector<int> gather_ids;

    // ldb measurement state for the current epoch: per-unit work counts
    // and cumulative model-cost accumulators per measured phase. The
    // accumulators mirror the recorder's += sequence exactly (same value,
    // same order, same per-step granularity), so a fault-free rank's
    // measured/model ratio is exactly 1.0 and the analytic predictor's
    // speed-1.0 replay reproduces the balancer's decisions bit-for-bit.
    UnitWork epoch_work;
    std::vector<int> unit_of_row;
    std::array<double, 3> model_cum{};
    std::array<double, 3> model_snap{};
    std::array<double, 3> measured_snap{};
    static constexpr const char* kMeasuredPhases[3] = {"bonded", "nonbonded",
                                                      "ewald_corr"};
    auto measured_cum = [&](int i) {
      const auto& phase_times = rec.phase_times();
      const auto it = phase_times.find(kMeasuredPhases[i]);
      return it == phase_times.end() ? 0.0 : it->second;
    };
    auto begin_measurement = [&]() {
      unit_of_row.assign(natoms, -1);
      for (int i : owned) {
        unit_of_row[static_cast<std::size_t>(i)] =
            units->cell_unit[static_cast<std::size_t>(
                layout.cell_of(pos[static_cast<std::size_t>(i)]))];
      }
      epoch_work =
          count_unit_work(units->nunits, topo, phys.nbl, unit_of_row);
      for (int i = 0; i < 3; ++i) {
        measured_snap[static_cast<std::size_t>(i)] = measured_cum(i);
        model_snap[static_cast<std::size_t>(i)] =
            model_cum[static_cast<std::size_t>(i)];
      }
    };

    // Step 0: every rank derives the identical global epoch from the
    // replicated initial positions — no communication.
    auto adopt_global_epoch = [&]() {
      const SpatialEpoch epoch = make_global_epoch(layout, pos);
      owned = epoch.owned[static_cast<std::size_t>(me)];
      send_ids = epoch.send[static_cast<std::size_t>(me)];
      for (std::size_t k = 0; k < nn; ++k) {
        const auto s = static_cast<std::size_t>(nbrs[k]);
        const auto& back = layout.rank_neighbors[s];
        const auto it = std::lower_bound(back.begin(), back.end(), me);
        recv_ids[k] =
            epoch.send[s][static_cast<std::size_t>(it - back.begin())];
      }
    };

    auto refresh_derived = [&]() {
      std::fill(owned_mask.begin(), owned_mask.end(), 0);
      for (int i : owned) owned_mask[static_cast<std::size_t>(i)] = 1;
      candidates = owned;
      for (const auto& r : recv_ids) {
        candidates.insert(candidates.end(), r.begin(), r.end());
      }
      share.owned_excl = 0;
      for (const auto& [i, j] : topo.excluded_pairs()) {
        (void)j;
        if (owned_mask[static_cast<std::size_t>(i)]) ++share.owned_excl;
      }
    };

    // Wire formats of the schedules below, all doubles:
    //   rows   — raw coordinates of rows both sides already know;
    //   id set — [n, ids x n, positions x n] of rows the receiver learns;
    //   atoms  — [n, (id, pos, vel) x n] of atoms changing owner, with the
    //            count patched in once the records are packed.
    auto pack_rows = [](std::vector<double>& b, const std::vector<Vec3>& v,
                        const std::vector<int>& ids) {
      for (int i : ids) append_xyz(b, v[static_cast<std::size_t>(i)]);
    };
    auto pack_id_set = [&](std::vector<double>& b,
                           const std::vector<int>& ids) {
      b.push_back(static_cast<double>(ids.size()));
      for (int i : ids) b.push_back(static_cast<double>(i));
      pack_rows(b, pos, ids);
    };
    auto unpack_id_set = [&](std::vector<int>& ids) {
      const auto n = static_cast<std::size_t>(in[0]);
      ids.resize(n);
      for (std::size_t a = 0; a < n; ++a) {
        ids[a] = static_cast<int>(in[1 + a]);
        const double* r = in.data() + 1 + n + 3 * a;
        pos[static_cast<std::size_t>(ids[a])] = {r[0], r[1], r[2]};
      }
    };
    auto pack_atom = [&](std::vector<double>& b, int i) {
      b.push_back(static_cast<double>(i));
      append_xyz(b, pos[static_cast<std::size_t>(i)]);
      append_xyz(b, vel[static_cast<std::size_t>(i)]);
    };
    auto seal_atoms = [](std::vector<double>& b) {
      b[0] = static_cast<double>((b.size() - 1) / 7);
    };
    auto unpack_atoms = [&](std::vector<int>& keep) {
      const auto n = static_cast<std::size_t>(in[0]);
      for (std::size_t a = 0; a < n; ++a) {
        const double* r = in.data() + 1 + 7 * a;
        const int id = static_cast<int>(r[0]);
        pos[static_cast<std::size_t>(id)] = {r[1], r[2], r[3]};
        vel[static_cast<std::size_t>(id)] = {r[4], r[5], r[6]};
        keep.push_back(id);
      }
    };

    // Atoms that left my cells move (id, pos, vel) to the new owner. An
    // atom drifting a whole cell width (≥ cutoff + skin) past its
    // neighbor shell within one epoch would need velocities far beyond
    // anything this integrator produces; assert rather than deadlock.
    auto migrate = [&](int step) {
      perf::PhaseScope phase(rec, "migrate");
      const int tag = schedule_tag(step, 0);
      for (auto& b : out) {
        b.clear();
        b.push_back(0.0);
      }
      std::vector<int> keep;
      keep.reserve(owned.size());
      for (int i : owned) {
        const int r = layout.cell_rank[static_cast<std::size_t>(
            layout.cell_of(pos[static_cast<std::size_t>(i)]))];
        if (r == me) {
          keep.push_back(i);
          continue;
        }
        const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), r);
        REPRO_REQUIRE(it != nbrs.end() && *it == r,
                      "atom migrated beyond the neighbor shell in one "
                      "epoch; the list rebuild interval is too long for "
                      "this timestep");
        pack_atom(out[static_cast<std::size_t>(it - nbrs.begin())], i);
        ++migrated;
      }
      for (std::size_t k = 0; k < nn; ++k) {
        seal_atoms(out[k]);
        comm.send(nbrs[k], tag, out[k].data(),
                  out[k].size() * sizeof(double), /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        unpack_atoms(keep);
      }
      std::sort(keep.begin(), keep.end());
      owned = std::move(keep);
    };

    // Renegotiate ghost sets for the new epoch: ship (ids, positions) of
    // my border-cell atoms to each neighbor; what arrives defines my
    // ghosts. Counts are unknown to the receiver, so every neighbor gets
    // a message even when empty.
    auto exchange_ghosts = [&](int step) {
      perf::PhaseScope phase(rec, "ghost_exchange");
      const int tag = schedule_tag(step, 1);
      for (auto& s : send_ids) s.clear();
      for (int i : owned) {
        const auto c = static_cast<std::size_t>(
            layout.cell_of(pos[static_cast<std::size_t>(i)]));
        for (int s : layout.cell_border_ranks[c]) {
          const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), s);
          send_ids[static_cast<std::size_t>(it - nbrs.begin())].push_back(i);
        }
      }
      for (std::size_t k = 0; k < nn; ++k) {
        auto& b = out[k];
        b.clear();
        pack_id_set(b, send_ids[k]);
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        unpack_id_set(recv_ids[k]);
      }
    };

    // Per-step position halo: both sides know the epoch's counts, so
    // payloads are raw coordinates and empty lists send nothing.
    auto halo_positions = [&](int step) {
      perf::PhaseScope phase(rec, "halo_exchange");
      const int tag = schedule_tag(step, 2);
      for (std::size_t k = 0; k < nn; ++k) {
        if (send_ids[k].empty()) continue;
        auto& b = out[k];
        b.clear();
        pack_rows(b, pos, send_ids[k]);
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        if (recv_ids[k].empty()) continue;
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        for (std::size_t a = 0; a < recv_ids[k].size(); ++a) {
          const double* r = in.data() + 3 * a;
          pos[static_cast<std::size_t>(recv_ids[k][a])] = {r[0], r[1], r[2]};
        }
      }
    };

    // Reverse halo: partial forces accumulated on my ghost rows go home
    // (byte-symmetric with the position halo), and the partials my
    // neighbors held for my atoms fold into my owned rows.
    auto halo_forces = [&](int step) {
      perf::PhaseScope phase(rec, "halo_fold");
      const int tag = schedule_tag(step, 3);
      for (std::size_t k = 0; k < nn; ++k) {
        if (recv_ids[k].empty()) continue;
        auto& b = out[k];
        b.clear();
        pack_rows(b, forces, recv_ids[k]);
        comm.send(nbrs[k], tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (std::size_t k = 0; k < nn; ++k) {
        if (send_ids[k].empty()) continue;
        comm.recv(nbrs[k], tag, in.data(), in.size() * sizeof(double));
        for (std::size_t a = 0; a < send_ids[k].size(); ++a) {
          const double* r = in.data() + 3 * a;
          forces[static_cast<std::size_t>(send_ids[k][a])] +=
              Vec3{r[0], r[1], r[2]};
        }
      }
    };

    // PME wants every position on every rank (slab spreading): a pairwise
    // all-to-all gather of (count, ids, positions). Every rank sends to
    // every other — owned sets are unknown remotely, and idle ranks must
    // still participate so the schedule cannot deadlock.
    auto gather_positions = [&](int step) {
      perf::PhaseScope phase(rec, "pme_gather");
      const int tag = schedule_tag(step, 4);
      auto& b = gather_buf;
      b.clear();
      pack_id_set(b, owned);
      for (int k = 1; k < p; ++k) {
        comm.send((me + k) % p, tag, b.data(), b.size() * sizeof(double),
                  /*exchange=*/true);
      }
      for (int k = 1; k < p; ++k) {
        comm.recv((me - k + p) % p, tag, in.data(),
                  in.size() * sizeof(double));
        unpack_id_set(gather_ids);
      }
    };

    // Measurement-driven rebalance, run at a rebuild between the drift
    // migration (old map: every owned atom sits in one of my cells, so
    // each unit's atoms are wholly on its old owner) and the ghost
    // renegotiation (new map). Three sub-steps:
    //   ldb_collect : allreduce of K unit costs (each summed by exactly
    //                 one rank, so the sum is v + 0 + ... and
    //                 order-independent) plus p measured rank speeds;
    //   decide      : every rank derives the identical new map;
    //   unit_handoff: the old owner of each moved unit ships its atoms
    //                 [count, (id, pos, vel) x n] to the new owner. All
    //                 sends post before any receive, both sides walk
    //                 moved units in ascending id, so multiple units
    //                 between one pair stay FIFO-aligned on one tag.
    auto rebalance = [&](int step) {
      const int nunits = units->nunits;
      std::vector<double> collect(static_cast<std::size_t>(nunits + p), 0.0);
      double measured = 0.0;
      double model = 0.0;
      for (int i = 0; i < 3; ++i) {
        measured += measured_cum(i) - measured_snap[static_cast<std::size_t>(i)];
        model += model_cum[static_cast<std::size_t>(i)] -
                 model_snap[static_cast<std::size_t>(i)];
      }
      collect[static_cast<std::size_t>(nunits + me)] =
          model > 0.0 ? measured / model : 1.0;
      for (int u = 0; u < nunits; ++u) {
        if (unit_rank[static_cast<std::size_t>(u)] != me) continue;
        const auto su = static_cast<std::size_t>(u);
        collect[su] =
            unit_cost_seconds(cost, epoch_work.pairs[su],
                              epoch_work.bonded[su], epoch_work.excl[su],
                              config.use_pme);
      }
      {
        perf::PhaseScope phase(rec, "ldb_collect");
        mw.global_sum(collect.data(), collect.size());
      }
      const std::vector<double> unit_cost(collect.begin(),
                                          collect.begin() + nunits);
      const std::vector<double> rank_speed(collect.begin() + nunits,
                                           collect.end());
      const std::vector<int> new_map =
          rebalance_units(spec_.ldb, unit_cost, rank_speed, unit_rank);
      std::vector<int> moved;
      for (int u = 0; u < nunits; ++u) {
        if (new_map[static_cast<std::size_t>(u)] !=
            unit_rank[static_cast<std::size_t>(u)]) {
          moved.push_back(u);
        }
      }
      units_moved += moved.size();
      std::vector<int> keep;
      keep.reserve(owned.size());
      {
        perf::PhaseScope phase(rec, "unit_handoff");
        const int tag = schedule_tag(step, 11);
        std::vector<int> my_moved;
        for (int u : moved) {
          if (unit_rank[static_cast<std::size_t>(u)] == me) my_moved.push_back(u);
        }
        std::vector<std::vector<double>> unit_out(my_moved.size());
        for (auto& b : unit_out) b.push_back(0.0);
        for (int i : owned) {
          const int u = units->cell_unit[static_cast<std::size_t>(
              layout.cell_of(pos[static_cast<std::size_t>(i)]))];
          if (new_map[static_cast<std::size_t>(u)] == me) {
            keep.push_back(i);
            continue;
          }
          const auto it =
              std::lower_bound(my_moved.begin(), my_moved.end(), u);
          REPRO_REQUIRE(it != my_moved.end() && *it == u,
                        "owned atom in a unit this rank does not own");
          pack_atom(unit_out[static_cast<std::size_t>(it - my_moved.begin())],
                    i);
        }
        for (std::size_t k = 0; k < my_moved.size(); ++k) {
          auto& b = unit_out[k];
          seal_atoms(b);
          comm.send(new_map[static_cast<std::size_t>(my_moved[k])], tag,
                    b.data(), b.size() * sizeof(double), /*exchange=*/true);
        }
        for (int u : moved) {
          if (new_map[static_cast<std::size_t>(u)] != me) continue;
          comm.recv(unit_rank[static_cast<std::size_t>(u)], tag, in.data(),
                    in.size() * sizeof(double));
          unpack_atoms(keep);
        }
      }
      std::sort(keep.begin(), keep.end());
      owned = std::move(keep);

      // Adopt the new map: re-derive the epoch topology (neighbor sets,
      // per-neighbor buffers, pencil-PME regions) from the new layout.
      unit_rank = new_map;
      layout = layout_from_units(layout, *units, unit_rank);
      hash_unit_map();
      nbrs = layout.rank_neighbors[static_cast<std::size_t>(me)];
      nn = nbrs.size();
      out.assign(nn, {});
      send_ids.assign(nn, {});
      recv_ids.assign(nn, {});
      if (pencil) {
        pencil_pme.emplace(config.pme, box, comm, pencil_py, pencil_pz,
                           make_pme_regions(layout, config.pme, config.skin),
                           charge_flops);
      }
    };

    RankRunResult result;
    std::size_t local_pairs = 0;
    for (int step = 0; step < config.nsteps; ++step) {
      rec.set_component(perf::Component::kClassic);
      if (config.coherency_barriers) mw.synchronize();

      if (step % config.list_rebuild_interval == 0) {
        if (step == 0) {
          adopt_global_epoch();
        } else {
          migrate(step);
          if (ldb_on) rebalance(step);
          exchange_ghosts(step);
        }
        refresh_derived();
        phys.build_list(share);
        local_pairs = phys.nbl.npairs();
        if (ldb_on) begin_measurement();
      }

      halo_positions(step);

      phys.zero_forces();
      md::EnergyTerms energy;
      const std::array<double, 3> sec = phys.classic_terms(share, energy);
      for (std::size_t i = 0; i < sec.size(); ++i) model_cum[i] += sec[i];

      if (config.use_pme) {
        rec.set_component(perf::Component::kPme);
        if (config.coherency_barriers) mw.synchronize();
        if (pencil) {
          // Pencil PME: charges are spread locally and exchanged as
          // region plane blocks, the FFT transposes within pencil rows/
          // columns, and owned-atom forces come back complete — no
          // position gather and no reciprocal-force allreduce.
          perf::PhaseScope phase(rec, "pme_recip");
          energy.ewald_recip += pencil_pme->reciprocal(
              topo, pos, owned, forces, schedule_tag(step, 5));
        } else {
          gather_positions(step);
          recip_forces.assign(natoms, Vec3{});
          {
            perf::PhaseScope phase(rec, "pme_recip");
            energy.ewald_recip += ppme->reciprocal(topo, pos, recip_forces);
          }
          {
            // The reciprocal force on an atom has contributions from
            // every slab; combine with one full-vector allreduce, of
            // which each rank keeps its owned rows (ghost rows would
            // double-count after the force halo).
            perf::PhaseScope phase(rec, "recip_reduce");
            util::flatten(recip_forces, flat);
            mw.global_sum(flat.data(), flat.size());
            util::unflatten(flat, recip_forces);
          }
          for (int i : owned) {
            const auto ui = static_cast<std::size_t>(i);
            forces[ui] += recip_forces[ui];
          }
        }
        rec.set_component(perf::Component::kClassic);
      }

      halo_forces(step);

      {
        perf::PhaseScope phase(rec, "energy_reduce");
        global_sum_energy(mw, energy);
      }
      result.last_energy = energy;
      phys.end_step();
    }

    // Distributed state needs one last reduction so every rank reports
    // the identical totals run_experiment asserts on: the coordinate
    // checksum over owners, the global pair count, and the migrations.
    {
      rec.set_component(perf::Component::kOther);
      perf::PhaseScope phase(rec, "result_reduce");
      double tail[3] = {phys.position_checksum(),
                        static_cast<double>(local_pairs),
                        static_cast<double>(migrated)};
      mw.global_sum(tail, 3);
      result.position_checksum = tail[0];
      result.pairs_in_list = static_cast<std::size_t>(tail[1] + 0.5);
      result.atoms_migrated = static_cast<std::size_t>(tail[2] + 0.5);
    }
    // Replicated balancer state: every rank computed the same maps from
    // the same allreduced inputs, so these need no reduction.
    result.units_moved = units_moved;
    result.unit_map_hash = unit_map_hash;
    return result;
  }

 private:
  DecompSpec spec_;
};

}  // namespace

std::unique_ptr<Decomposition> make_decomposition(const DecompSpec& spec) {
  switch (spec.kind) {
    case DecompKind::kAtomReplicated:
      return std::make_unique<AtomReplicatedDecomposition>();
    case DecompKind::kForce:
      return std::make_unique<ForceDecomposition>();
    case DecompKind::kTaskPme:
      return std::make_unique<TaskPmeDecomposition>(spec);
    case DecompKind::kSpatial:
      return std::make_unique<SpatialDecomposition>(spec);
  }
  REPRO_UNREACHABLE("bad decomposition kind");
}

}  // namespace repro::charmm
