/** @file Unit tests for the MLP and its trainer. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "data/tiler.hpp"
#include "hw/target.hpp"
#include "ml/mlp.hpp"

namespace kodan::ml {
namespace {

MlpConfig
binaryConfig(std::vector<int> hidden, int input_dim = 2)
{
    MlpConfig config;
    config.input_dim = input_dim;
    config.hidden = std::move(hidden);
    config.output_dim = 1;
    config.output = OutputKind::Sigmoid;
    return config;
}

TEST(Mlp, ParameterCountMatchesArchitecture)
{
    util::Rng rng(1);
    const Mlp net(binaryConfig({4, 3}), rng);
    // (2*4+4) + (4*3+3) + (3*1+1) = 12 + 15 + 4 = 31.
    EXPECT_EQ(net.parameterCount(), 31U);
}

TEST(Mlp, OutputIsProbability)
{
    util::Rng rng(2);
    const Mlp net(binaryConfig({8}), rng);
    for (double x = -3.0; x < 3.0; x += 0.5) {
        const double input[2] = {x, -x};
        const double p = net.predictProb(input);
        ASSERT_GE(p, 0.0);
        ASSERT_LE(p, 1.0);
    }
}

TEST(Mlp, LearnsLinearlySeparableProblem)
{
    util::Rng rng(3);
    Mlp net(binaryConfig({8}), rng);
    const int n = 400;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(-1.0, 1.0);
        x.at(i, 1) = rng.uniform(-1.0, 1.0);
        y[i] = (x.at(i, 0) + x.at(i, 1) > 0.0) ? 1.0 : 0.0;
    }
    TrainOptions options;
    options.epochs = 40;
    const double loss = net.train(x, y, options, rng);
    EXPECT_LT(loss, 0.25);

    int correct = 0;
    for (int i = 0; i < n; ++i) {
        const double p = net.predictProb(x.row(i));
        if ((p > 0.5) == (y[i] > 0.5)) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 360);
}

TEST(Mlp, LearnsXorWithHiddenLayer)
{
    util::Rng rng(4);
    Mlp net(binaryConfig({16, 8}), rng);
    const int n = 600;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(-1.0, 1.0);
        x.at(i, 1) = rng.uniform(-1.0, 1.0);
        y[i] = (x.at(i, 0) * x.at(i, 1) > 0.0) ? 1.0 : 0.0;
    }
    TrainOptions options;
    options.epochs = 120;
    options.learning_rate = 5e-3;
    net.train(x, y, options, rng);
    int correct = 0;
    for (int i = 0; i < n; ++i) {
        if ((net.predictProb(x.row(i)) > 0.5) == (y[i] > 0.5)) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 540); // 90%
}

TEST(Mlp, SoftLabelsSupported)
{
    util::Rng rng(5);
    Mlp net(binaryConfig({4}, 1), rng);
    const int n = 300;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        x.at(i, 0) = rng.uniform(0.0, 1.0);
        y[i] = x.at(i, 0); // soft target = input
    }
    TrainOptions options;
    options.epochs = 80;
    net.train(x, y, options, rng);
    const double lo_in[1] = {0.1};
    const double hi_in[1] = {0.9};
    EXPECT_LT(net.predictProb(lo_in), net.predictProb(hi_in));
}

TEST(Mlp, SoftmaxLearnsBlobs)
{
    util::Rng rng(6);
    MlpConfig config;
    config.input_dim = 2;
    config.hidden = {16};
    config.output_dim = 3;
    config.output = OutputKind::Softmax;
    Mlp net(config, rng);

    const double centers[3][2] = {{-2.0, 0.0}, {2.0, 0.0}, {0.0, 2.5}};
    const int n = 600;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (int i = 0; i < n; ++i) {
        const int cls = i % 3;
        x.at(i, 0) = centers[cls][0] + rng.normal(0.0, 0.4);
        x.at(i, 1) = centers[cls][1] + rng.normal(0.0, 0.4);
        y[i] = cls;
    }
    TrainOptions options;
    options.epochs = 60;
    net.train(x, y, options, rng);

    int correct = 0;
    for (int i = 0; i < n; ++i) {
        if (net.predictClass(x.row(i)) == static_cast<int>(y[i])) {
            ++correct;
        }
    }
    EXPECT_GT(correct, 570); // 95%
}

TEST(Mlp, SoftmaxOutputsSumToOne)
{
    util::Rng rng(7);
    MlpConfig config;
    config.input_dim = 3;
    config.hidden = {5};
    config.output_dim = 4;
    config.output = OutputKind::Softmax;
    const Mlp net(config, rng);
    const double input[3] = {0.2, -1.0, 0.5};
    double out[4];
    net.forward(input, out);
    double sum = 0.0;
    for (double p : out) {
        ASSERT_GE(p, 0.0);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, SaveLoadRoundTrip)
{
    util::Rng rng(8);
    Mlp net(binaryConfig({6, 4}), rng);
    std::stringstream stream;
    net.save(stream);
    const Mlp loaded = Mlp::load(stream);
    EXPECT_EQ(loaded.parameterCount(), net.parameterCount());
    for (double x = -2.0; x < 2.0; x += 0.3) {
        const double input[2] = {x, x * 0.5};
        EXPECT_NEAR(loaded.predictProb(input), net.predictProb(input),
                    1e-12);
    }
}

TEST(Mlp, TrainingIsDeterministic)
{
    auto make_trained = [] {
        util::Rng rng(9);
        Mlp net(binaryConfig({6}), rng);
        Matrix x(50, 2);
        std::vector<double> y(50);
        util::Rng data_rng(10);
        for (int i = 0; i < 50; ++i) {
            x.at(i, 0) = data_rng.uniform(-1.0, 1.0);
            x.at(i, 1) = data_rng.uniform(-1.0, 1.0);
            y[i] = x.at(i, 0) > 0.0 ? 1.0 : 0.0;
        }
        TrainOptions options;
        options.epochs = 5;
        net.train(x, y, options, rng);
        return net;
    };
    const Mlp a = make_trained();
    const Mlp b = make_trained();
    const double input[2] = {0.3, -0.8};
    EXPECT_DOUBLE_EQ(a.predictProb(input), b.predictProb(input));
}

TEST(Mlp, DeeperModelsHaveMoreParameters)
{
    util::Rng rng(11);
    std::size_t prev = 0;
    for (const auto &hidden :
         {std::vector<int>{8}, std::vector<int>{16, 8},
          std::vector<int>{64, 32, 16}}) {
        const Mlp net(binaryConfig(hidden, 30), rng);
        EXPECT_GT(net.parameterCount(), prev);
        prev = net.parameterCount();
    }
}

// Every architecture the model zoo builds — the seven application tiers
// and the softmax context engine — survives save/load bit-for-bit.
TEST(Mlp, ZooArchitecturesRoundTrip)
{
    std::vector<MlpConfig> zoo;
    for (int tier = 1; tier <= hw::kAppCount; ++tier) {
        zoo.push_back(binaryConfig(hw::CostModel::tierHidden(tier),
                                   data::kBlockInputDim));
    }
    MlpConfig engine;
    engine.input_dim = core::ContextEngine::kInputDim;
    engine.hidden = {24, 16};
    engine.output_dim = 6;
    engine.output = OutputKind::Softmax;
    zoo.push_back(engine);
    for (const MlpConfig &config : zoo) {
        util::Rng rng(11);
        const Mlp net(config, rng);
        std::stringstream first;
        net.save(first);
        const Mlp loaded = Mlp::load(first);
        std::stringstream second;
        loaded.save(second);
        EXPECT_EQ(first.str(), second.str());
    }
}

/** Load @p text as a model; exits through util::fatal when rejected. */
void
loadText(const std::string &text)
{
    std::istringstream is(text);
    (void)Mlp::load(is);
}

TEST(MlpDeathTest, LoadRejectsNegativeInputDim)
{
    EXPECT_EXIT(loadText("mlp 1\n-3 1 0 1 4\n"),
                ::testing::ExitedWithCode(1), "Mlp::load: bad dimensions");
}

TEST(MlpDeathTest, LoadRejectsHugeHiddenCount)
{
    EXPECT_EXIT(loadText("mlp 1\n2 1 0 1099511627776 4\n"),
                ::testing::ExitedWithCode(1), "Mlp::load: bad dimensions");
}

TEST(MlpDeathTest, LoadRejectsZeroHiddenWidth)
{
    EXPECT_EXIT(loadText("mlp 1\n2 1 0 2 4 0\n"),
                ::testing::ExitedWithCode(1), "Mlp::load: bad dimensions");
}

TEST(MlpDeathTest, LoadRejectsHeaderTruncatedAfterOutputDim)
{
    EXPECT_EXIT(loadText("mlp 1\n2 1"), ::testing::ExitedWithCode(1),
                "Mlp::load: bad dimensions");
}

} // namespace
} // namespace kodan::ml
