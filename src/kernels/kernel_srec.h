/**
 * @file
 * Kernel 03.srec — 3-D scene reconstruction via ICP (paper §V.03).
 */

#ifndef RTR_KERNELS_KERNEL_SREC_H
#define RTR_KERNELS_KERNEL_SREC_H

#include "kernels/kernel.h"

namespace rtr {

/**
 * Depth scans of a synthetic living room (the ICL-NUIM stand-in) are
 * registered and fused frame by frame.
 *
 * Key metrics: pointcloud_fraction (model indexing, nearest-neighbor
 * correspondence and normal neighborhoods, merge; the paper's
 * memory-bound >68%), matrix_ops_fraction (transform estimation and
 * normal eigensolves), the trajectory error against ground truth, and
 * two work counts summed over frames: model_points_indexed and
 * normals_computed (the model normals ICP read).
 */
class SrecKernel : public Kernel
{
  public:
    std::string name() const override { return "srec"; }
    Stage stage() const override { return Stage::Perception; }
    std::string
    description() const override
    {
        return "ICP scene reconstruction from synthetic depth scans";
    }
    void addOptions(ArgParser &parser) const override;
    KernelReport run(const ArgParser &args) const override;
};

} // namespace rtr

#endif // RTR_KERNELS_KERNEL_SREC_H
