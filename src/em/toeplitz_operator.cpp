#include "em/toeplitz_operator.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "em/hmatrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

std::size_t grid_dim(long span) {
    return next_pow2(static_cast<std::size_t>(2 * span + 1));
}

} // namespace

ToeplitzFamily::ToeplitzFamily(Lattice lat, std::vector<double> table)
    : lat_(std::move(lat)),
      table_(std::move(table)),
      nx_(grid_dim(lat_.span_x)),
      ny_(grid_dim(lat_.span_y)),
      nz_(lat_.zs.empty() ? 1 : lat_.zs.size()),
      fx_(nx_),
      fy_(ny_) {
    PGSI_REQUIRE(lat_.uniform, "ToeplitzFamily: lattice is not uniform");
    if (lat_.count() == 0) return;
    PGSI_REQUIRE(table_.size() == lat_.table_entries(),
                 "ToeplitzFamily: table size does not match the lattice");
    PGSI_TRACE_SCOPE("toeplitz.family_setup");

    site_.resize(lat_.count());
    for (std::size_t e = 0; e < lat_.count(); ++e) {
        const std::size_t gx = static_cast<std::size_t>(lat_.ix[e] - lat_.min_x);
        const std::size_t gy = static_cast<std::size_t>(lat_.iy[e] - lat_.min_y);
        site_[e] = gy * nx_ + gx;
    }

    // One circulant kernel spectrum per ordered (z_obs, z_src) layer pair.
    // Offsets are wrapped onto the grid; because nx >= 2*span_x+1 (same in y)
    // the circular convolution of any two occupied sites lands on the true
    // displacement entry, never on a wrapped alias.
    const std::size_t nz = lat_.zs.size();
    kernel_hat_.assign(nz * nz, VectorC());
    for (std::size_t zo = 0; zo < nz; ++zo) {
        for (std::size_t zs = 0; zs < nz; ++zs) {
            VectorC k(nx_ * ny_, Complex{});
            for (long dj = -lat_.span_y; dj <= lat_.span_y; ++dj) {
                const std::size_t gj = static_cast<std::size_t>(
                    (dj + static_cast<long>(ny_)) % static_cast<long>(ny_));
                for (long di = -lat_.span_x; di <= lat_.span_x; ++di) {
                    const std::size_t gi = static_cast<std::size_t>(
                        (di + static_cast<long>(nx_)) % static_cast<long>(nx_));
                    k[gj * nx_ + gi] = table_[table_offset_index(lat_, di, dj, zo, zs)];
                }
            }
            fft_2d(k.data(), ny_, nx_, fy_, fx_, false);
            kernel_hat_[zo * nz + zs] = std::move(k);
        }
    }
}

void ToeplitzFamily::apply(const Complex* x, Complex* y) const {
    const std::size_t count = lat_.count();
    if (count == 0) return;
    const std::size_t nz = lat_.zs.size();
    const std::size_t cells = nx_ * ny_;

    // Scatter each source layer to its grid and transform it once.
    std::vector<VectorC> ghat(nz, VectorC(cells, Complex{}));
    for (std::size_t e = 0; e < count; ++e)
        ghat[static_cast<std::size_t>(lat_.zid[e])][site_[e]] = x[e];
    for (std::size_t zs = 0; zs < nz; ++zs)
        fft_2d(ghat[zs].data(), ny_, nx_, fy_, fx_, false);

    VectorC acc(cells);
    for (std::size_t zo = 0; zo < nz; ++zo) {
        // acc_hat = sum_zs K_hat(zo, zs) .* g_hat(zs), then back-transform.
        par::parallel_for_chunked(cells, 0, [&](std::size_t b, std::size_t e) {
            for (std::size_t k = b; k < e; ++k) {
                Complex s{};
                for (std::size_t zs = 0; zs < nz; ++zs)
                    s += kernel_hat_[zo * nz + zs][k] * ghat[zs][k];
                acc[k] = s;
            }
        });
        fft_2d(acc.data(), ny_, nx_, fy_, fx_, true);
        for (std::size_t e = 0; e < count; ++e)
            if (static_cast<std::size_t>(lat_.zid[e]) == zo) y[e] = acc[site_[e]];
    }
}

void InteractionOperator::map_families(const std::vector<std::size_t>& counts) {
    PGSI_REQUIRE(counts.size() == idx_.size(),
                 "InteractionOperator: one index map per family required");
    family_of_.assign(size_, -1);
    local_of_.assign(size_, 0);
    for (std::size_t f = 0; f < idx_.size(); ++f) {
        PGSI_REQUIRE(idx_[f].size() == counts[f],
                     "InteractionOperator: index map size mismatch");
        for (std::size_t e = 0; e < idx_[f].size(); ++e) {
            const std::size_t g = idx_[f][e];
            PGSI_REQUIRE(g < size_ && family_of_[g] < 0,
                         "InteractionOperator: families must partition the index space");
            family_of_[g] = static_cast<int>(f);
            local_of_[g] = e;
        }
    }
    for (std::size_t g = 0; g < size_; ++g)
        PGSI_REQUIRE(family_of_[g] >= 0,
                     "InteractionOperator: families must cover the index space");
}

InteractionOperator InteractionOperator::toeplitz(
    std::vector<ToeplitzFamily> families,
    std::vector<std::vector<std::size_t>> idx, std::size_t size) {
    InteractionOperator op;
    op.size_ = size;
    op.families_ = std::move(families);
    op.idx_ = std::move(idx);
    std::vector<std::size_t> counts;
    for (const ToeplitzFamily& fam : op.families_) counts.push_back(fam.count());
    op.map_families(counts);
    return op;
}

InteractionOperator InteractionOperator::hmatrix(
    std::vector<std::shared_ptr<const Hmatrix>> parts,
    std::vector<std::vector<std::size_t>> idx, std::size_t size) {
    InteractionOperator op;
    op.size_ = size;
    op.hmats_ = std::move(parts);
    op.idx_ = std::move(idx);
    std::vector<std::size_t> counts;
    for (const auto& part : op.hmats_) {
        PGSI_REQUIRE(part != nullptr, "InteractionOperator: null H-matrix part");
        counts.push_back(part->size());
    }
    op.map_families(counts);
    return op;
}

void InteractionOperator::apply(const VectorC& x, VectorC& y) const {
    PGSI_REQUIRE(x.size() == size_, "InteractionOperator: size mismatch");
    y.assign(size_, Complex{});
    if (!hmats_.empty()) {
        static obs::Counter& c_hm = obs::counter("interaction_op.hmatrix_applies");
        ++c_hm;
        VectorC xh, yh;
        for (std::size_t f = 0; f < hmats_.size(); ++f) {
            const std::vector<std::size_t>& map = idx_[f];
            xh.resize(map.size());
            yh.assign(map.size(), Complex{});
            for (std::size_t e = 0; e < map.size(); ++e) xh[e] = x[map[e]];
            hmats_[f]->apply(xh.data(), yh.data());
            for (std::size_t e = 0; e < map.size(); ++e) y[map[e]] = yh[e];
        }
        return;
    }
    static obs::Counter& c_fft = obs::counter("interaction_op.fft_applies");
    ++c_fft;
    VectorC xf, yf;
    for (std::size_t f = 0; f < families_.size(); ++f) {
        const std::vector<std::size_t>& map = idx_[f];
        xf.resize(map.size());
        yf.assign(map.size(), Complex{});
        for (std::size_t e = 0; e < map.size(); ++e) xf[e] = x[map[e]];
        families_[f].apply(xf.data(), yf.data());
        for (std::size_t e = 0; e < map.size(); ++e) y[map[e]] = yf[e];
    }
}

double InteractionOperator::entry(std::size_t i, std::size_t j) const {
    PGSI_ASSERT(i < size_ && j < size_);
    if (family_of_[i] != family_of_[j]) return 0.0;
    const std::size_t f = static_cast<std::size_t>(family_of_[i]);
    if (!hmats_.empty()) return hmats_[f]->entry(local_of_[i], local_of_[j]);
    return families_[f].entry(local_of_[i], local_of_[j]);
}

} // namespace pgsi
