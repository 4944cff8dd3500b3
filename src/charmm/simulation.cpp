#include "charmm/simulation.hpp"

#include "md/bonded.hpp"
#include "util/units.hpp"

namespace repro::charmm {

md::MinimizeResult relax_system(sysbuild::BuiltSystem& sys, int max_steps) {
  SimulationConfig config;
  Simulation sim(sys, config);
  md::MinimizeOptions opts;
  opts.max_steps = max_steps;
  opts.force_tolerance = 25.0;
  const md::MinimizeResult res = sim.minimize(opts);
  sys.positions = sim.positions();
  return res;
}

Simulation::Simulation(const sysbuild::BuiltSystem& sys,
                       const SimulationConfig& config)
    : sys_(sys),
      config_(config),
      nbl_(config.cutoff, config.skin),
      pme_(config.pme, sys.box),
      integrator_(config.dt_ps),
      pos_(sys.positions),
      vel_(sys.positions.size()),
      forces_(sys.positions.size()) {
  validate_config(config);
  nb_.cutoff = config.cutoff;
  nb_.switch_on = config.switch_on;
  nb_.elec = config.use_pme ? md::NonbondedOptions::Elec::kEwaldDirect
                            : md::NonbondedOptions::Elec::kShift;
  nb_.beta = config.pme.beta;
  nb_.kernel = config.kernel;
  nb_.table = md::build_pair_table(sys.topo);
  if (config.rigid_waters) {
    shake_.emplace(md::Shake::rigid_waters(sys.topo));
  } else if (config.shake_hydrogens) {
    shake_.emplace(md::Shake::hydrogen_bonds(sys.topo));
  }
  switch (config.thermostat) {
    case SimulationConfig::Thermostat::kNone:
      break;
    case SimulationConfig::Thermostat::kBerendsen:
      berendsen_.emplace(config.thermostat_target_k,
                         config.berendsen_tau_ps);
      break;
    case SimulationConfig::Thermostat::kLangevin:
      langevin_.emplace(config.thermostat_target_k,
                        config.langevin_friction_per_ps,
                        config.thermostat_seed);
      break;
  }
}

void Simulation::ensure_list() {
  if (steps_since_rebuild_ < 0 ||
      steps_since_rebuild_ >= config_.list_rebuild_interval ||
      nbl_.needs_rebuild(sys_.box, pos_)) {
    nbl_.build(sys_.topo, sys_.box, pos_);
    steps_since_rebuild_ = 0;
  }
}

void Simulation::compute_forces() {
  ensure_list();
  std::fill(forces_.begin(), forces_.end(), util::Vec3{});
  energy_ = md::EnergyTerms{};
  md::bonded_energy(sys_.topo, sys_.box, pos_, forces_, energy_);
  md::nonbonded_energy(sys_.topo, sys_.box, pos_, nbl_, nb_, forces_,
                       energy_);
  if (config_.use_pme) {
    energy_.ewald_excl = pme::ewald_exclusion_correction(
        sys_.topo, sys_.box, pos_, config_.pme.beta, forces_);
    energy_.ewald_self = pme::ewald_self_energy(sys_.topo, config_.pme.beta);
    energy_.ewald_recip = pme_.reciprocal(sys_.topo, pos_, forces_);
  }
}

const md::EnergyTerms& Simulation::evaluate() {
  compute_forces();
  return energy_;
}

void Simulation::step(int nsteps) {
  compute_forces();
  std::vector<util::Vec3> ref;
  for (int s = 0; s < nsteps; ++s) {
    if (shake_) ref = pos_;
    integrator_.begin_step(sys_.topo, forces_, pos_, vel_);
    if (shake_) {
      shake_->apply_positions(sys_.topo, sys_.box, ref, pos_, &vel_,
                              config_.dt_ps);
    }
    ++steps_since_rebuild_;
    compute_forces();
    integrator_.end_step(sys_.topo, forces_, vel_);
    if (shake_) shake_->apply_velocities(sys_.topo, sys_.box, pos_, vel_);
    if (berendsen_) {
      berendsen_->apply(sys_.topo, config_.dt_ps, degrees_of_freedom(),
                        vel_);
    }
    if (langevin_) langevin_->apply(sys_.topo, config_.dt_ps, vel_);
  }
}

md::MinimizeResult Simulation::minimize(const md::MinimizeOptions& opts) {
  auto evaluate = [this](const std::vector<util::Vec3>& p,
                         std::vector<util::Vec3>& f) {
    pos_ = p;
    compute_forces();  // rebuilds the list only once the skin is used up
    f = forces_;
    return energy_.potential();
  };
  std::vector<util::Vec3> work = pos_;
  const md::MinimizeResult res = md::minimize(opts, evaluate, work);
  pos_ = work;
  steps_since_rebuild_ = -1;
  compute_forces();
  return res;
}

void Simulation::set_velocities_from_temperature(double temperature_k,
                                                 std::uint64_t seed) {
  md::assign_velocities(sys_.topo, temperature_k, seed, vel_);
}

double Simulation::kinetic_energy() const {
  return md::kinetic_energy(sys_.topo, vel_);
}

double Simulation::total_energy() const {
  return energy_.potential() + kinetic_energy();
}

int Simulation::degrees_of_freedom() const {
  int dof = 3 * sys_.topo.natoms();
  if (shake_) dof -= shake_->removed_dof();
  return dof;
}

double Simulation::current_temperature() const {
  return 2.0 * kinetic_energy() /
         (degrees_of_freedom() * units::kBoltzmann);
}

}  // namespace repro::charmm
