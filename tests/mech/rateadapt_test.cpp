#include "netpp/mech/rateadapt.h"

#include <gtest/gtest.h>

namespace netpp {
namespace {

using namespace netpp::literals;

LoadTrace constant_trace(double load, int pipes, double duration) {
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  trace.loads = {std::vector<double>(pipes, load)};
  trace.end = Seconds{duration};
  return trace;
}

RateAdaptConfig default_config() {
  RateAdaptConfig cfg;
  cfg.model = SwitchPowerModel{};
  return cfg;
}

MechanismReport run(const LoadTrace& trace, const RateAdaptConfig& cfg,
                    RateAdaptMode mode) {
  RateAdaptPolicy policy{cfg, mode};
  return run_mechanism(trace, policy);
}

TEST(RateAdapt, NoneModeMatchesEnvelope) {
  const auto cfg = default_config();
  // Idle trace, no adaptation: the switch draws its idle power (90% of max
  // with default fractions) the whole time.
  const auto result =
      run(constant_trace(0.0, cfg.model.config().num_pipelines, 10.0), cfg,
          RateAdaptMode::kNone);
  EXPECT_NEAR(result.average_power.value(),
              cfg.model.idle_power().value(), 1e-6);
  EXPECT_EQ(result.level_transitions, 0u);
  EXPECT_DOUBLE_EQ(result.savings, 0.0);
}

TEST(RateAdapt, FullLoadLeavesNothingToSave) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto result = run(constant_trace(1.0, pipes, 5.0), cfg,
                          RateAdaptMode::kPerPipeline);
  EXPECT_NEAR(result.savings, 0.0, 1e-9);
  EXPECT_NEAR(result.mean_level, 1.0, 1e-9);
}

TEST(RateAdapt, IdleTraceSavesClockPower) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto result = run(constant_trace(0.0, pipes, 5.0), cfg,
                          RateAdaptMode::kPerPipeline);
  // At min_frequency 0.25, the clock tree power drops by 75% of its share:
  // pipelines are 40% of 750 W, clock is 35% of that -> saving =
  // 0.75*0.35*0.40*750 = 78.75 W off the 675 W idle draw.
  EXPECT_NEAR(result.average_power.value(), 675.0 - 78.75, 1e-6);
  EXPECT_GT(result.savings, 0.1);
}

TEST(RateAdapt, PerPipelineBeatsGlobalOnSkewedLoad) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  // One hot pipeline, the rest idle.
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  std::vector<double> loads(pipes, 0.05);
  loads[0] = 0.9;
  trace.loads = {loads};
  trace.end = Seconds{10.0};

  const auto global = run(trace, cfg, RateAdaptMode::kGlobalAsic);
  const auto per_pipe = run(trace, cfg, RateAdaptMode::kPerPipeline);
  EXPECT_LT(per_pipe.energy.value(), global.energy.value());
  EXPECT_GT(per_pipe.savings, global.savings);
}

TEST(RateAdapt, GlobalEqualsPerPipelineOnUniformLoad) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto trace = constant_trace(0.4, pipes, 5.0);
  const auto global = run(trace, cfg, RateAdaptMode::kGlobalAsic);
  const auto per_pipe = run(trace, cfg, RateAdaptMode::kPerPipeline);
  EXPECT_NEAR(global.energy.value(), per_pipe.energy.value(), 1e-6);
}

TEST(RateAdapt, SerDesDownRatingAddsSavings) {
  auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto without = run(constant_trace(0.1, pipes, 5.0), cfg,
                           RateAdaptMode::kPerPipeline);
  cfg.lane_steps = {0.25, 0.5, 1.0};
  const auto with = run(constant_trace(0.1, pipes, 5.0), cfg,
                        RateAdaptMode::kPerPipeline);
  EXPECT_LT(with.energy.value(), without.energy.value());
  // Load 0.1 with 10% headroom fits the 0.25 lane step: SerDes at a quarter
  // power saves 0.75 * 0.30 * 750 = 168.75 W.
  EXPECT_NEAR(without.average_power.value() - with.average_power.value(),
              168.75, 1e-6);
}

TEST(RateAdapt, HysteresisLimitsTransitions) {
  auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  // Load oscillating inside a narrow band.
  LoadTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.times.push_back(Seconds{i * 0.1});
    trace.loads.push_back(std::vector<double>(pipes, 0.50 + 0.01 * (i % 2)));
  }
  trace.end = Seconds{5.0};

  cfg.hysteresis = 0.001;
  const auto flappy = run(trace, cfg, RateAdaptMode::kPerPipeline);
  cfg.hysteresis = 0.10;
  const auto damped = run(trace, cfg, RateAdaptMode::kPerPipeline);
  EXPECT_GT(flappy.level_transitions, damped.level_transitions);
}

TEST(RateAdapt, UpwardMovesAlwaysHonored) {
  auto cfg = default_config();
  cfg.hysteresis = 0.5;  // huge band
  const int pipes = cfg.model.config().num_pipelines;
  LoadTrace trace;
  trace.times = {Seconds{0.0}, Seconds{1.0}};
  trace.loads = {std::vector<double>(pipes, 0.1),
                 std::vector<double>(pipes, 0.9)};
  trace.end = Seconds{2.0};
  // Must not throw: the load spike forces the clock up despite hysteresis
  // (pipeline_power would reject load > frequency).
  const auto result = run(trace, cfg, RateAdaptMode::kPerPipeline);
  EXPECT_GT(result.level_transitions, 0u);
}

TEST(RateAdapt, TraceValidation) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  LoadTrace empty;
  EXPECT_THROW((void)run(empty, cfg, RateAdaptMode::kNone),
               std::invalid_argument);

  LoadTrace bad_arity;
  bad_arity.times = {Seconds{0.0}};
  bad_arity.loads = {std::vector<double>(pipes + 1, 0.0)};
  bad_arity.end = Seconds{1.0};
  EXPECT_THROW((void)run(bad_arity, cfg, RateAdaptMode::kNone),
               std::invalid_argument);

  auto bad_load = constant_trace(1.5, pipes, 1.0);
  EXPECT_THROW((void)run(bad_load, cfg, RateAdaptMode::kNone),
               std::invalid_argument);

  auto bad_end = constant_trace(0.5, pipes, 1.0);
  bad_end.end = Seconds{0.0};
  EXPECT_THROW((void)run(bad_end, cfg, RateAdaptMode::kNone),
               std::invalid_argument);
}

TEST(RateAdapt, RejectsTooFewChannels) {
  // A single aggregate channel would be read as loads[0..pipes): every
  // mode must reject it rather than index past the segment.
  const auto cfg = default_config();
  for (RateAdaptMode mode : {RateAdaptMode::kNone, RateAdaptMode::kGlobalAsic,
                             RateAdaptMode::kPerPipeline}) {
    EXPECT_THROW((void)run(constant_trace(0.5, 1, 1.0), cfg, mode),
                 std::invalid_argument);
  }
}

TEST(RateAdapt, InvalidConfigsThrow) {
  auto cfg = default_config();
  cfg.min_frequency = 0.0;
  EXPECT_THROW((RateAdaptPolicy{cfg, RateAdaptMode::kPerPipeline}),
               std::invalid_argument);
  cfg = default_config();
  cfg.headroom = -0.1;
  EXPECT_THROW((RateAdaptPolicy{cfg, RateAdaptMode::kPerPipeline}),
               std::invalid_argument);
}

TEST(RateAdapt, SavingsGrowAsLoadShrinks) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  double prev = 1.0;
  for (double load : {0.8, 0.6, 0.4, 0.2, 0.0}) {
    const auto result = run(constant_trace(load, pipes, 5.0), cfg,
                            RateAdaptMode::kPerPipeline);
    EXPECT_LT(result.average_power.value() / cfg.model.max_power().value(),
              prev + 1e-12)
        << "load=" << load;
    prev = result.average_power.value() / cfg.model.max_power().value();
  }
}

}  // namespace
}  // namespace netpp
