// fatomic::Config — the unified builder must reproduce the internal knob
// struct (CampaignSettings) exactly.  The deprecated
// detect::Options and mask::MaskOptions adapters completed their one-release
// migration cycle and are gone (DESIGN.md migration table).
#include "fatomic/config.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/report/json.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace report = fatomic::report;
namespace weave = fatomic::weave;

namespace {

class ConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.trace.disable();
  }
};

}  // namespace

TEST_F(ConfigTest, BuilderSettersChainAndGettersReflect) {
  fatomic::Config cfg;
  cfg.jobs(8)
      .max_runs(42)
      .record_diffs(true)
      .validate_checkpoints(true)
      .prune_atomic({"A::f"})
      .exception_free("A::g")
      .no_wrap("A::h")
      .tracing(true);
  EXPECT_EQ(cfg.jobs(), 8u);
  EXPECT_TRUE(cfg.tracing());
  EXPECT_FALSE(cfg.masked());
  const detect::CampaignSettings& s = cfg.campaign_settings();
  EXPECT_EQ(s.max_runs, 42u);
  EXPECT_TRUE(s.record_diffs);
  EXPECT_TRUE(s.validate_checkpoints);
  EXPECT_EQ(s.prune_atomic, (std::set<std::string>{"A::f"}));
  EXPECT_TRUE(s.trace);
  EXPECT_EQ(cfg.policy().exception_free.count("A::g"), 1u);
  EXPECT_EQ(cfg.policy().no_wrap.count("A::h"), 1u);
}

TEST_F(ConfigTest, MaskInstallsPredicateAndFlipsMasked) {
  fatomic::Config cfg;
  cfg.mask([](const weave::MethodInfo&) { return true; });
  EXPECT_TRUE(cfg.masked());
  EXPECT_TRUE(cfg.campaign_settings().masked);
  ASSERT_TRUE(static_cast<bool>(cfg.campaign_settings().wrap));
}

TEST_F(ConfigTest, ConfigCampaignMatchesSettingsCampaign) {
  fatomic::Config cfg;
  cfg.jobs(2);
  detect::Campaign via_config =
      detect::Experiment(synthetic::workload, cfg).run();

  detect::CampaignSettings settings;
  settings.jobs = 2;
  detect::Campaign via_settings =
      detect::Experiment(synthetic::workload, settings).run();

  EXPECT_EQ(report::campaign_json(via_config),
            report::campaign_json(via_settings));
}

TEST_F(ConfigTest, PolicyFlowsIntoClassification) {
  fatomic::Config cfg;
  cfg.exception_free("synthetic::Account::helper");
  detect::Campaign c = detect::Experiment(synthetic::workload, cfg).run();
  // The policy is carried by the config, not the campaign — classify with it.
  auto with = detect::classify(c, cfg.policy());
  auto without = detect::classify(c);
  EXPECT_LE(with.nonatomic_names().size(), without.nonatomic_names().size());
}

TEST_F(ConfigTest, ConfigDrivenMaskVerification) {
  auto cls = detect::classify(detect::Experiment(synthetic::workload).run());
  fatomic::Config cfg;
  cfg.jobs(2).mask(fatomic::mask::wrap_pure(cls));
  const auto verified =
      fatomic::mask::verify_masked_full(synthetic::workload, cfg);
  EXPECT_TRUE(verified.classification.nonatomic_names().empty());
}

TEST_F(ConfigTest, ConfigMaskVerificationMatchesLegacyPath) {
  auto cls = detect::classify(detect::Experiment(synthetic::workload).run());
  auto wrap = fatomic::mask::wrap_pure(cls);

  fatomic::Config cfg;
  cfg.mask(wrap);
  const auto via_config =
      fatomic::mask::verify_masked_full(synthetic::workload, cfg);
  detect::CampaignSettings settings;
  settings.masked = true;
  settings.wrap = wrap;
  const detect::Campaign via_settings =
      detect::Experiment(synthetic::workload, settings).run();
  EXPECT_EQ(report::campaign_json(via_config.campaign),
            report::campaign_json(via_settings));
  EXPECT_EQ(via_config.classification.nonatomic_names(),
            fatomic::mask::verify_masked(synthetic::workload, wrap)
                .nonatomic_names());
}

TEST_F(ConfigTest, RecoveryBuilderAccumulatesPolicies) {
  namespace recovery = fatomic::recovery;
  fatomic::Config cfg;
  recovery::RecoveryPolicy retry;
  retry.action = recovery::Action::Retry;
  retry.retry_budget = 3;
  cfg.recovery_policy("A::f", retry)
      .recovery_policy("A::g", recovery::RecoveryPolicy{});
  ASSERT_NE(cfg.recovery(), nullptr);
  EXPECT_EQ(cfg.recovery()->size(), 2u);
  const recovery::RecoveryPolicy* found = cfg.recovery()->find("A::f");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->action, recovery::Action::Retry);
  EXPECT_EQ(found->retry_budget, 3u);
  EXPECT_EQ(cfg.campaign_settings().recovery_policies, cfg.recovery());

  // Replacing the whole table drops the builder's accumulation.
  auto table = std::make_shared<recovery::PolicyTable>();
  cfg.recovery(table);
  EXPECT_EQ(cfg.recovery(), table);
}
